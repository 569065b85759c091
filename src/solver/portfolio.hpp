// A racing portfolio for the edge-labeling existence question.
//
// Both deciders in the tree are exact on the same question — backtracking
// (src/solver/edge_labeling.hpp) and CDCL over the bad-prefix encoding
// (src/solver/cnf_encoding.hpp) — but their runtimes diverge wildly per
// instance. The portfolio encodes the CNF once, then races the backtracker
// against several CDCL copies under different branching seeds on the thread
// pool; the first definitive answer wins and cancels the rest through a
// shared SearchBudget. Because every engine is exact, whichever finishes
// first is correct, so the yes/no verdict is deterministic even though the
// winner is not.
//
// All losers are cancelled cooperatively and the pool barrier in
// `run_batch` guarantees no task outlives the call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/util/budget.hpp"

namespace slocal {

struct PortfolioOptions {
  /// 0 = all hardware threads. The portfolio never runs more threads than
  /// it has engines (1 backtracker + sat_seeds CDCL copies).
  std::size_t threads = 0;
  /// Number of CDCL copies; seed 0 is the unperturbed solver, higher seeds
  /// jitter activities and branch polarity.
  std::size_t sat_seeds = 3;
  /// Local node cap for the backtracking engine (always enforced).
  std::uint64_t node_budget = 50'000'000;
  /// Local conflict cap per CDCL copy; 0 = run to completion.
  std::uint64_t conflict_budget = 0;
  /// Overall wall-clock limit for the race; 0 = none.
  std::uint64_t timeout_ms = 0;
  /// Optional external budget: cancelling it (or its deadline) stops the
  /// whole race.
  SearchBudget* budget = nullptr;
};

struct PortfolioResult {
  /// kYes (labels attached) / kNo are definitive; kExhausted means no
  /// engine finished inside its budget, or the CNF could not be encoded
  /// (a constraint past the index cap; reason stays kNone).
  Verdict verdict = Verdict::kExhausted;
  std::optional<std::vector<Label>> labels;
  /// Which engine answered first: "backtracking" or "sat[<seed>]"; empty
  /// when exhausted.
  std::string winner;
  /// Why the race stopped without an answer (kNone when decided).
  ExhaustReason reason = ExhaustReason::kNone;
  std::uint64_t nodes = 0;      // backtracking nodes charged to the race
  std::uint64_t conflicts = 0;  // CDCL conflicts summed across all copies
  double wall_ms = 0.0;
};

/// Decides whether `pi` admits a bipartite solution on `g` by racing the
/// backtracker against `sat_seeds` CDCL copies. Blocks until the race is
/// over; never leaks tasks.
PortfolioResult solve_labeling_portfolio(const BipartiteGraph& g, const Problem& pi,
                                         const PortfolioOptions& options = {});

}  // namespace slocal
