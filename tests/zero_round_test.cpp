// Theorem 3.2 as an executable property: the direct 0-round white-algorithm
// decider must agree with "lift_{Δ,r}(Π) has a bipartite solution on G" on
// every instance — two completely independent decision procedures.
#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/lift/sweep.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/solver/zero_round.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

/// The library decider (src/lift/sweep.hpp), collapsed to bool for the
/// equivalence checks below; kExhausted would be a test failure anyway.
bool lift_solvable_bool(const BipartiteGraph& g, const Problem& pi) {
  const Verdict v = lift_solvable(g, pi);
  EXPECT_NE(v, Verdict::kExhausted);
  return v == Verdict::kYes;
}

TEST(ZeroRound, SinklessOrientationSolvableWhenSupportKnown) {
  // SO with Δ' = 2, r' = 2 on a 2-biregular support cycle: the nodes know
  // the cycle, can orient it consistently in 0 rounds => both deciders say
  // yes.
  const BipartiteGraph g = make_bipartite_cycle(4);
  const Problem so = make_sinkless_orientation_problem(2);
  EXPECT_TRUE(zero_round_white_algorithm_exists(g, so));
  EXPECT_TRUE(lift_solvable_bool(g, so));
}

TEST(ZeroRound, TwoColoringDependsOnIncidenceParity) {
  // Proper 2-coloring with Δ' = r' = 2. make_bipartite_cycle(h) is the
  // incidence graph of the cycle C_h (white = nodes, black = edges), so
  // 0-round 2-colorability matches C_h's bipartiteness: C_4 yes (color by
  // the known support bipartition), C_3 no (odd cycle). Both deciders must
  // track this exactly.
  const Problem c2 = make_proper_coloring_problem(2, 2);
  {
    const BipartiteGraph even = make_bipartite_cycle(4);
    const bool direct = zero_round_white_algorithm_exists(even, c2);
    EXPECT_EQ(direct, lift_solvable_bool(even, c2));
    EXPECT_TRUE(direct);
  }
  {
    const BipartiteGraph odd = make_bipartite_cycle(3);
    const bool direct = zero_round_white_algorithm_exists(odd, c2);
    EXPECT_EQ(direct, lift_solvable_bool(odd, c2));
    EXPECT_FALSE(direct);
  }
}

TEST(ZeroRound, MaximalMatchingNotZeroRoundSolvable) {
  // Maximal matching (Δ' = r' = 2) is not 0-round solvable even in
  // Supported LOCAL on a 2-biregular support cycle of length >= 8
  // (Theorem 4.1's shape at the smallest scale): both deciders must say no.
  const BipartiteGraph g = make_bipartite_cycle(4);
  const Problem mm = make_maximal_matching_problem(2);
  const bool direct = zero_round_white_algorithm_exists(g, mm);
  const bool lifted = lift_solvable_bool(g, mm);
  EXPECT_EQ(direct, lifted);
}

TEST(ZeroRound, Theorem32EquivalenceOnRandomCorpus) {
  // The heart of E5: random small problems Π and random (Δ,r)-biregular
  // supports G; the two deciders must agree on every instance.
  Rng rng(99);
  int yes = 0, no = 0;
  ZeroRoundStats total;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t dw = 2;                       // Δ' = 2
    const std::size_t db = 2;                       // r' = 2
    const std::size_t alphabet = 2 + rng.below(2);  // 2..3 labels
    LabelRegistry reg;
    for (std::size_t l = 0; l < alphabet; ++l) {
      reg.intern(std::string(1, static_cast<char>('A' + l)));
    }
    Constraint white(dw), black(db);
    const auto fill = [&](Constraint& c, std::size_t d, double p) {
      for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
        if (rng.chance(p)) {
          std::vector<Label> labels;
          for (const std::size_t q : pick) labels.push_back(static_cast<Label>(q));
          c.add(Configuration(std::move(labels)));
        }
        return true;
      });
    };
    fill(white, dw, 0.6);
    fill(black, db, 0.6);
    if (white.empty() || black.empty()) continue;
    const Problem pi("random", reg, white, black);

    // Support: (3,3)-biregular or a bipartite cycle.
    BipartiteGraph g = make_bipartite_cycle(3);
    if (trial % 2 == 0) {
      auto rb = random_biregular(4, 3, 4, 3, rng);
      if (!rb) continue;
      g = *rb;
    }

    ZeroRoundStats stats;
    const bool direct = zero_round_white_algorithm_exists(g, pi, &stats);
    const bool lifted = lift_solvable_bool(g, pi);
    EXPECT_EQ(direct, lifted) << "trial " << trial << "\n"
                              << pi.to_string();
    (direct ? yes : no)++;
    total.variables += stats.variables;
    total.clauses += stats.clauses;
    total.black_scenarios += stats.black_scenarios;
  }
  EXPECT_GT(yes, 3);
  EXPECT_GT(no, 3);
  // The corpus's encoding sizes, summed: pins the CNF the encoder emits.
  EXPECT_EQ(total.variables, 2316u);
  EXPECT_EQ(total.clauses, 8211u);
  EXPECT_EQ(total.black_scenarios, 2172u);
}

TEST(ZeroRound, EncodingSizesArePinned) {
  // Exact variable, clause and black-scenario counts of the instances
  // above: the encoder's clause primitives must emit the same CNF for every
  // instance, not just reach the same verdict.
  struct Row {
    const char* name;
    BipartiteGraph g;
    Problem pi;
    ZeroRoundStats expected;
  };
  const Problem so = make_sinkless_orientation_problem(2);
  const Problem c2 = make_proper_coloring_problem(2, 2);
  const Problem mm = make_maximal_matching_problem(2);
  const Row rows[] = {
      {"so/cycle4", make_bipartite_cycle(4), so, {32, 68, 16, Verdict::kYes}},
      {"so/cycle3", make_bipartite_cycle(3), so, {24, 51, 12, Verdict::kYes}},
      {"c2/cycle4", make_bipartite_cycle(4), c2, {32, 72, 16, Verdict::kYes}},
      {"c2/cycle3", make_bipartite_cycle(3), c2, {24, 54, 12, Verdict::kNo}},
      {"mm/cycle4", make_bipartite_cycle(4), mm, {48, 152, 16, Verdict::kYes}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    ZeroRoundStats stats;
    zero_round_white_algorithm_exists(row.g, row.pi, &stats);
    EXPECT_EQ(stats.variables, row.expected.variables);
    EXPECT_EQ(stats.clauses, row.expected.clauses);
    EXPECT_EQ(stats.black_scenarios, row.expected.black_scenarios);
    EXPECT_EQ(stats.verdict, row.expected.verdict);
  }
}

TEST(ZeroRound, StatsPopulated) {
  const BipartiteGraph g = make_bipartite_cycle(3);
  const Problem so = make_sinkless_orientation_problem(2);
  ZeroRoundStats stats;
  zero_round_white_algorithm_exists(g, so, &stats);
  EXPECT_GT(stats.variables, 0u);
  EXPECT_GT(stats.clauses, 0u);
  EXPECT_GT(stats.black_scenarios, 0u);
}

}  // namespace
}  // namespace slocal
