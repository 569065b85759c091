#include "src/solver/portfolio.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal {

PortfolioResult solve_labeling_portfolio(const BipartiteGraph& g, const Problem& pi,
                                         const PortfolioOptions& options) {
  PortfolioResult result;

  // The race budget carries the wall-clock limit and relays an external
  // cancel; the winner cancels it to stop the losers. It has no node or
  // conflict limit of its own — those stay per-engine — so its counters
  // double as the race's consumption diagnostics.
  SearchBudget race;
  if (options.timeout_ms > 0) {
    race.set_deadline_ms(static_cast<double>(options.timeout_ms));
  }
  if (options.budget != nullptr) race.chain_to(options.budget);

  // Encode once; every CDCL copy races the same clauses. The encoding runs
  // under a child budget so its DFS nodes do not pollute the race's
  // backtracking-node counter. A caller-supplied pre-encoded instance
  // (incremental sweep snapshot) skips this step entirely.
  std::optional<LabelingCnf> local_cnf;
  const LabelingCnf* cnf = options.encoded;
  if (cnf == nullptr) {
    SearchBudget encode_budget;
    encode_budget.chain_to(&race);
    local_cnf = encode_bipartite_labeling(g, pi, &encode_budget);
    if (!local_cnf.has_value()) {
      result.reason = race.halted() ? race.reason() : encode_budget.reason();
      result.wall_ms = race.elapsed_ms();
      return result;  // kExhausted before the race even started
    }
    cnf = &*local_cnf;
  }

  std::mutex claim;
  bool claimed = false;
  const auto offer = [&](Verdict verdict, std::optional<std::vector<Label>> labels,
                         std::string winner,
                         const std::vector<std::uint8_t>* phases = nullptr) {
    const std::lock_guard<std::mutex> lock(claim);
    if (claimed) return;  // a second engine finishing must agree; keep first
    claimed = true;
    result.verdict = verdict;
    result.labels = std::move(labels);
    result.winner = std::move(winner);
    if (phases != nullptr) result.winner_phase = *phases;
    race.cancel();
  };

  std::vector<std::function<void()>> tasks;
  tasks.reserve(1 + options.sat_seeds);
  tasks.push_back([&] {
    LabelingOptions backtrack;
    backtrack.node_budget = options.node_budget;
    backtrack.budget = &race;
    bool exhausted = false;
    std::optional<std::vector<Label>> labels =
        solve_bipartite_labeling(g, pi, backtrack, &exhausted);
    if (labels.has_value()) {
      offer(Verdict::kYes, std::move(labels), "backtracking");
    } else if (!exhausted) {
      offer(Verdict::kNo, std::nullopt, "backtracking");
    }
  });
  const std::size_t alphabet = pi.alphabet_size();
  for (std::size_t seed = 0; seed < options.sat_seeds; ++seed) {
    tasks.push_back([&, seed] {
      LabelingCnf copy = *cnf;  // SatSolver is copyable by design
      copy.solver.set_branch_seed(static_cast<std::uint64_t>(seed));
      if (!options.initial_phase.empty()) {
        copy.solver.set_phases(options.initial_phase);
      }
      const SatResult sat = copy.solver.solve_under_assumptions(
          options.assumptions, options.conflict_budget, &race);
      if (sat == SatResult::kSat) {
        offer(Verdict::kYes, decode_bipartite_labeling(copy, alphabet),
              "sat[" + std::to_string(seed) + "]", &copy.solver.phases());
      } else if (sat == SatResult::kUnsat) {
        offer(Verdict::kNo, std::nullopt, "sat[" + std::to_string(seed) + "]",
              &copy.solver.phases());
      }
    });
  }

  // run_batch is a barrier: every engine has returned (decided, exhausted,
  // or cancelled) before we read the result, so nothing can leak.
  const std::size_t want = ThreadPool::resolve_threads(options.threads);
  ThreadPool pool(std::min(want, tasks.size()) - 1);
  pool.run_batch(std::move(tasks));

  if (result.verdict == Verdict::kExhausted) {
    result.reason =
        race.halted() ? race.reason() : ExhaustReason::kNodes;  // local caps
  }
  result.nodes = race.nodes_used();
  result.conflicts = race.conflicts_used();
  result.wall_ms = race.elapsed_ms();
  return result;
}

}  // namespace slocal
