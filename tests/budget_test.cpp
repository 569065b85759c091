// Budget semantics across every search engine.
//
// The invariant under test: exhausting a budget may turn an answer into
// kExhausted, but NEVER flips yes into no or vice versa. Sweeping a node
// budget from 1 upward must therefore produce a prefix of exhausted results
// followed by the reference answer — any other outcome is a soundness bug.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "src/formalism/parser.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/graph/generators.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/solver/portfolio.hpp"
#include "src/solver/zero_round.hpp"
#include "src/util/budget.hpp"

namespace slocal {
namespace {

// ---------------------------------------------------------------------------
// SearchBudget unit semantics.
// ---------------------------------------------------------------------------

TEST(SearchBudget, NodeLimitTripsPastLimitAndIsSticky) {
  SearchBudget budget;
  budget.set_node_limit(5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(budget.charge()) << i;
  EXPECT_FALSE(budget.charge());  // 6th node exceeds the limit
  EXPECT_TRUE(budget.halted());
  EXPECT_EQ(budget.reason(), ExhaustReason::kNodes);
  EXPECT_FALSE(budget.charge());  // sticky
  EXPECT_FALSE(budget.keep_going());
}

TEST(SearchBudget, ConflictLimitTrips) {
  SearchBudget budget;
  budget.set_conflict_limit(3);
  EXPECT_TRUE(budget.charge_conflicts(3));
  EXPECT_FALSE(budget.charge_conflicts(1));
  EXPECT_EQ(budget.reason(), ExhaustReason::kConflicts);
  EXPECT_EQ(budget.conflicts_used(), 4u);
}

TEST(SearchBudget, CancelStopsEverything) {
  SearchBudget budget;
  budget.cancel();
  EXPECT_TRUE(budget.halted());
  EXPECT_EQ(budget.reason(), ExhaustReason::kCancelled);
  EXPECT_FALSE(budget.charge());
  EXPECT_FALSE(budget.keep_going());
}

TEST(SearchBudget, DeadlineTrips) {
  SearchBudget budget;
  budget.set_deadline_ms(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // The deadline is polled (amortized); within one poll window it must trip.
  bool tripped = false;
  for (int i = 0; i < 512 && !tripped; ++i) tripped = !budget.keep_going();
  EXPECT_TRUE(tripped);
  EXPECT_EQ(budget.reason(), ExhaustReason::kDeadline);
}

TEST(SearchBudget, FirstReasonWins) {
  SearchBudget budget;
  budget.set_node_limit(1);
  EXPECT_TRUE(budget.charge());
  EXPECT_FALSE(budget.charge());
  budget.cancel();  // later trip must not overwrite the diagnostic
  EXPECT_EQ(budget.reason(), ExhaustReason::kNodes);
}

TEST(SearchBudget, ChainedChildTripsWhenParentDoes) {
  SearchBudget parent;
  SearchBudget child;
  child.chain_to(&parent);
  EXPECT_TRUE(child.charge());
  parent.cancel();
  bool tripped = false;
  for (int i = 0; i < 512 && !tripped; ++i) tripped = !child.charge();
  EXPECT_TRUE(tripped);
  EXPECT_EQ(child.reason(), ExhaustReason::kCancelled);
  // The child's consumption never counts against the parent.
  EXPECT_EQ(parent.nodes_used(), 0u);
}

TEST(SearchBudget, DescribeCarriesDiagnostics) {
  SearchBudget budget;
  budget.set_node_limit(2);
  while (budget.charge()) {
  }
  const std::string d = budget.describe();
  EXPECT_NE(d.find("exhausted (node limit)"), std::string::npos) << d;
  EXPECT_NE(d.find("nodes=3/2"), std::string::npos) << d;
}

// ---------------------------------------------------------------------------
// Fixtures: the "parity" problem (white nodes monochromatic, black nodes
// bichromatic) is a proper 2-coloring of the white cycle — solvable iff the
// cycle is even. Both directions need real backtracking to decide.
// ---------------------------------------------------------------------------

Problem parity_problem() {
  auto p = parse_problem("parity", "A A\nB B", "A B");
  EXPECT_TRUE(p.has_value());
  return *p;
}

// ---------------------------------------------------------------------------
// No-verdict-flip sweeps, engine by engine.
// ---------------------------------------------------------------------------

void sweep_backtracker(const Problem& pi, const BipartiteGraph& g) {
  bool ref_exhausted = false;
  const auto reference = solve_bipartite_labeling(g, pi, {}, &ref_exhausted);
  ASSERT_FALSE(ref_exhausted);
  bool saw_exhausted = false;
  for (std::uint64_t cap = 1; cap <= 64; ++cap) {
    SearchBudget budget(cap);
    LabelingOptions options;
    options.budget = &budget;
    bool exhausted = false;
    const auto result = solve_bipartite_labeling(g, pi, options, &exhausted);
    if (exhausted) {
      EXPECT_FALSE(result.has_value());
      EXPECT_EQ(budget.reason(), ExhaustReason::kNodes);
      saw_exhausted = true;
      continue;
    }
    ASSERT_EQ(result.has_value(), reference.has_value()) << "cap=" << cap;
    if (result) EXPECT_TRUE(check_bipartite_labeling(g, pi, *result));
  }
  EXPECT_TRUE(saw_exhausted) << "sweep never hit the budget — caps too large";
}

TEST(BudgetNoFlip, BacktrackerSolvable) {
  sweep_backtracker(parity_problem(), make_bipartite_cycle(6));
}

TEST(BudgetNoFlip, BacktrackerUnsolvable) {
  sweep_backtracker(parity_problem(), make_bipartite_cycle(5));
}

void sweep_sat(const Problem& pi, const BipartiteGraph& g) {
  SatLabelingStats ref_stats;
  const auto reference = solve_bipartite_labeling_sat(g, pi, 0, &ref_stats);
  ASSERT_NE(ref_stats.result, SatResult::kUnknown);
  for (std::uint64_t cap = 1; cap <= 32; ++cap) {
    SearchBudget budget;
    budget.set_conflict_limit(cap);
    SatLabelingStats stats;
    const auto result = solve_bipartite_labeling_sat(g, pi, 0, &stats, &budget);
    if (stats.result == SatResult::kUnknown) {
      EXPECT_FALSE(result.has_value());
      continue;
    }
    ASSERT_EQ(result.has_value(), reference.has_value()) << "cap=" << cap;
    if (result) EXPECT_TRUE(check_bipartite_labeling(g, pi, *result));
  }
}

TEST(BudgetNoFlip, SatSolvable) { sweep_sat(parity_problem(), make_bipartite_cycle(6)); }

TEST(BudgetNoFlip, SatUnsolvable) { sweep_sat(parity_problem(), make_bipartite_cycle(5)); }

TEST(BudgetNoFlip, SatEncodingAbortsCleanly) {
  // A tripped budget during encoding must yield nullopt (a partial CNF would
  // be unsound to solve), never a malformed instance.
  const Problem pi = make_maximal_matching_problem(3);
  const BipartiteGraph g = make_complete_bipartite(3, 3);
  for (std::uint64_t cap = 1; cap <= 16; ++cap) {
    SearchBudget budget(cap);
    const auto cnf = encode_bipartite_labeling(g, pi, &budget);
    if (budget.exhausted()) {
      EXPECT_FALSE(cnf.has_value());
    } else {
      EXPECT_TRUE(cnf.has_value());
    }
  }
}

void sweep_zero_round(const Problem& pi, const BipartiteGraph& g) {
  ZeroRoundStats ref_stats;
  const bool reference = zero_round_white_algorithm_exists(g, pi, &ref_stats);
  ASSERT_NE(ref_stats.verdict, Verdict::kExhausted);
  for (std::uint64_t cap = 1; cap <= 64; cap += 3) {
    SearchBudget budget(cap);
    ZeroRoundStats stats;
    const bool exists = zero_round_white_algorithm_exists(g, pi, &stats, &budget);
    if (stats.verdict == Verdict::kExhausted) {
      EXPECT_FALSE(exists);  // exhausted never claims existence
      continue;
    }
    EXPECT_EQ(exists, reference) << "cap=" << cap;
    EXPECT_EQ(stats.verdict, ref_stats.verdict);
  }
}

TEST(BudgetNoFlip, ZeroRound) {
  sweep_zero_round(parity_problem(), make_bipartite_cycle(3));
}

TEST(BudgetNoFlip, RelaxationLabelMap) {
  const Problem mm = make_maximal_matching_problem(3);
  const Problem so = make_sinkless_orientation_problem(3);
  const Problem pairs[2][2] = {{mm, mm}, {mm, so}};
  for (const auto& pair : pairs) {
    RelaxationOptions unlimited;
    unlimited.node_budget = 0;
    const auto reference = find_relaxation_label_map(pair[0], pair[1], unlimited);
    ASSERT_NE(reference.verdict, Verdict::kExhausted);
    for (std::uint64_t cap = 1; cap <= 48; ++cap) {
      RelaxationOptions options;
      options.node_budget = cap;
      const auto result = find_relaxation_label_map(pair[0], pair[1], options);
      if (result.verdict == Verdict::kExhausted) {
        EXPECT_FALSE(result.map.has_value());
        continue;
      }
      ASSERT_EQ(result.verdict, reference.verdict) << "cap=" << cap;
      if (result.verdict == Verdict::kYes) {
        // Budgeted and unbudgeted serial searches agree on the witness.
        EXPECT_EQ(*result.map, *reference.map);
      }
    }
  }
}

TEST(BudgetNoFlip, RelaxationWitness) {
  const Problem mm = make_maximal_matching_problem(3);
  const Problem so = make_sinkless_orientation_problem(3);
  const Problem pairs[2][2] = {{so, so}, {so, mm}};
  for (const auto& pair : pairs) {
    RelaxationOptions unlimited;
    unlimited.node_budget = 0;
    const auto reference = find_relaxation_witness(pair[0], pair[1], unlimited);
    ASSERT_NE(reference.verdict, Verdict::kExhausted);
    for (std::uint64_t cap = 1; cap <= 48; cap += 2) {
      RelaxationOptions options;
      options.node_budget = cap;
      const auto result = find_relaxation_witness(pair[0], pair[1], options);
      if (result.verdict == Verdict::kExhausted) continue;
      ASSERT_EQ(result.verdict, reference.verdict) << "cap=" << cap;
      if (result.verdict == Verdict::kYes) {
        EXPECT_TRUE(check_relaxation_witness(pair[0], pair[1], *result.mapping));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Round elimination under budgets.
// ---------------------------------------------------------------------------

TEST(BudgetRE, TinyNodeCapExhaustsWithIntactDiagnostics) {
  const Problem pi = make_maximal_matching_problem(3);
  REOptions options;
  options.max_nodes = 5;
  REStats stats;
  options.stats = &stats;
  const auto result = round_eliminate(pi, options);
  EXPECT_FALSE(result.has_value());
  EXPECT_GT(stats.budget_exhausted, 0u);
  EXPECT_GT(stats.dfs_nodes, 0u);  // diagnostics survive the abort
}

TEST(BudgetRE, GenerousNodeCapReproducesUnbudgetedResult) {
  const auto reference = round_eliminate(make_maximal_matching_problem(3), {});
  ASSERT_TRUE(reference.has_value());
  REOptions options;
  options.max_nodes = 1'000'000'000;
  const auto budgeted = round_eliminate(make_maximal_matching_problem(3), options);
  ASSERT_TRUE(budgeted.has_value());
  EXPECT_EQ(format_problem(*budgeted), format_problem(*reference));
}

TEST(BudgetRE, ThreadCountsAgreeUnderSameNodeBudget) {
  // A finite max_nodes forces the serial path, so verdict AND counters must
  // match for any requested thread count. Fresh problems per run: the
  // extension-index cache would otherwise make counters order-dependent.
  for (const std::uint64_t cap : {std::uint64_t{40}, std::uint64_t{1'000'000'000}}) {
    auto run = [cap](std::size_t threads) {
      REOptions options;
      options.max_nodes = cap;
      options.threads = threads;
      REStats stats;
      options.stats = &stats;
      const auto result = round_eliminate(make_sinkless_orientation_problem(3), options);
      return std::make_pair(result, stats);
    };
    const auto [r1, s1] = run(1);
    const auto [r4, s4] = run(4);
    ASSERT_EQ(r1.has_value(), r4.has_value()) << "cap=" << cap;
    if (r1) EXPECT_EQ(format_problem(*r1), format_problem(*r4));
    EXPECT_EQ(s1.dfs_nodes, s4.dfs_nodes);
    EXPECT_EQ(s1.extendable_calls, s4.extendable_calls);
    EXPECT_EQ(s1.configs_enumerated, s4.configs_enumerated);
    EXPECT_EQ(s1.maximality_probes, s4.maximality_probes);
    EXPECT_EQ(s1.relaxed_multisets, s4.relaxed_multisets);
    EXPECT_EQ(s1.budget_exhausted, s4.budget_exhausted);
    EXPECT_EQ(s1.threads_used, s4.threads_used);  // both forced serial
  }
}

TEST(BudgetRE, ChargedNodesAreTheNodeCounters) {
  // A completed application charges its budget exactly the REStats node
  // counters that REOptions::max_nodes documents (and discover accounts in).
  const Problem problems[] = {make_matching_problem(6, 0, 1), make_matching_problem(7, 1, 2),
                              make_matching_problem(8, 2, 3)};
  for (const Problem& pi : problems) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SearchBudget budget;
      REStats stats;
      REOptions options;
      options.threads = threads;
      options.budget = &budget;
      options.stats = &stats;
      ASSERT_TRUE(round_eliminate(pi, options).has_value()) << pi.name();
      EXPECT_EQ(budget.nodes_used(),
                stats.dfs_nodes + stats.configs_enumerated + stats.relaxed_multisets)
          << pi.name() << " threads=" << threads;
    }
  }
}

TEST(BudgetRE, CancelledSequenceVerificationNeverFlipsVerdict) {
  const Problem pi = make_sinkless_orientation_problem(3);
  const auto re = round_eliminate(pi, {});
  ASSERT_TRUE(re.has_value());
  const std::vector<Problem> sequence = {pi, *re};
  const SequenceReport reference = verify_lower_bound_sequence(sequence);
  ASSERT_TRUE(reference.valid);

  SearchBudget cancelled;
  cancelled.cancel();
  REOptions options;
  options.budget = &cancelled;
  const SequenceReport report = verify_lower_bound_sequence(sequence, options);
  EXPECT_FALSE(report.valid);  // unverified, not refuted
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_TRUE(report.steps[0].re_budget_exhausted);
  EXPECT_FALSE(report.steps[0].relaxation_found);
  EXPECT_NE(report.to_string().find("EXHAUSTED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Portfolio.
// ---------------------------------------------------------------------------

TEST(BudgetPortfolio, SolvableInstanceYieldsVerifiedLabeling) {
  const Problem pi = parity_problem();
  const BipartiteGraph g = make_bipartite_cycle(6);
  const PortfolioResult result = solve_labeling_portfolio(g, pi);
  ASSERT_EQ(result.verdict, Verdict::kYes);
  ASSERT_TRUE(result.labels.has_value());
  EXPECT_TRUE(check_bipartite_labeling(g, pi, *result.labels));
  EXPECT_FALSE(result.winner.empty());
  EXPECT_EQ(result.reason, ExhaustReason::kNone);
}

TEST(BudgetPortfolio, UnsolvableInstanceYieldsNo) {
  const PortfolioResult result =
      solve_labeling_portfolio(make_bipartite_cycle(5), parity_problem());
  EXPECT_EQ(result.verdict, Verdict::kNo);
  EXPECT_FALSE(result.labels.has_value());
  EXPECT_FALSE(result.winner.empty());
}

TEST(BudgetPortfolio, PreCancelledExternalBudgetExhaustsImmediately) {
  SearchBudget external;
  external.cancel();
  PortfolioOptions options;
  options.budget = &external;
  const PortfolioResult result =
      solve_labeling_portfolio(make_bipartite_cycle(6), parity_problem(), options);
  EXPECT_EQ(result.verdict, Verdict::kExhausted);
  EXPECT_EQ(result.reason, ExhaustReason::kCancelled);
  EXPECT_FALSE(result.labels.has_value());
}

TEST(BudgetPortfolio, RepeatedRacesLeakNothing) {
  // The run_batch barrier means no task outlives its call; repeated races
  // with mixed outcomes (win, lose, cancelled) must leave the process in a
  // clean state every time. Run under ASan/TSan in CI.
  const Problem pi = parity_problem();
  const BipartiteGraph solvable = make_bipartite_cycle(6);
  const BipartiteGraph unsolvable = make_bipartite_cycle(5);
  for (int i = 0; i < 20; ++i) {
    PortfolioOptions options;
    options.sat_seeds = 2;
    if (i % 3 == 2) {
      SearchBudget external;
      external.cancel();
      options.budget = &external;
      const auto r = solve_labeling_portfolio(solvable, pi, options);
      EXPECT_EQ(r.verdict, Verdict::kExhausted);
      continue;  // external must outlive the call — it does; the race is over
    }
    const auto r =
        solve_labeling_portfolio(i % 2 == 0 ? solvable : unsolvable, pi, options);
    EXPECT_EQ(r.verdict, i % 2 == 0 ? Verdict::kYes : Verdict::kNo);
  }
  // The pool is still healthy after all that churn.
  const auto last = solve_labeling_portfolio(solvable, pi);
  EXPECT_EQ(last.verdict, Verdict::kYes);
}

}  // namespace
}  // namespace slocal
