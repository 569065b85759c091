// Edge-labeling existence deciders: backtracking vs SAT cross-checks, and
// ground-truth instances (maximal matching on cycles, proper coloring vs
// chromatic number, sinkless orientation on cycles and trees), and the
// outcome of every SAT encoder on a constraint past the extension-index cap.
#include <gtest/gtest.h>

#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/metrics.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/verifiers.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/solver/one_round.hpp"
#include "src/solver/zero_round.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

TEST(EdgeLabeling, MaximalMatchingOnBipartiteCycles) {
  // MM_2 on an even cycle C_{2k} (2-colored): solvable, and the decoded
  // matching is a genuine maximal matching.
  for (const std::size_t half : {3u, 4u, 5u, 7u}) {
    const BipartiteGraph g = make_bipartite_cycle(half);
    const Problem mm = make_maximal_matching_problem(2);
    const auto labels = solve_bipartite_labeling(g, mm);
    ASSERT_TRUE(labels.has_value()) << "half=" << half;
    EXPECT_TRUE(check_bipartite_labeling(g, mm, *labels));
    const auto matched =
        decode_maximal_matching_labeling(g, *labels, *mm.registry().find("M"));
    EXPECT_TRUE(matched.has_value());
  }
}

TEST(EdgeLabeling, MaximalMatchingOnCompleteBipartite) {
  const BipartiteGraph g = make_complete_bipartite(3, 3);
  const Problem mm = make_maximal_matching_problem(3);
  const auto labels = solve_bipartite_labeling(g, mm);
  ASSERT_TRUE(labels.has_value());
  EXPECT_TRUE(check_bipartite_labeling(g, mm, *labels));
}

TEST(EdgeLabeling, NodesWithWrongDegreeAreUnconstrained) {
  // A path white-black-white: white degree 1 != 3, black degree 2 != 3, so
  // everything is unconstrained and any labeling works.
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0);
  g.add_edge(1, 0);
  const Problem mm = make_maximal_matching_problem(3);
  const auto labels = solve_bipartite_labeling(g, mm);
  ASSERT_TRUE(labels.has_value());
}

TEST(EdgeLabeling, ProperColoringMatchesChromaticNumber) {
  // K_4 (as half-edge labeling): 3 colors fail, 4 colors work.
  const Graph k4 = make_complete(4);
  const Problem c3 = make_proper_coloring_problem(3, 3);
  const Problem c4 = make_proper_coloring_problem(3, 4);
  bool exhausted = false;
  EXPECT_FALSE(solve_graph_halfedge_labeling(k4, c3, {}, &exhausted).has_value());
  EXPECT_FALSE(exhausted);
  EXPECT_TRUE(solve_graph_halfedge_labeling(k4, c4).has_value());
}

TEST(EdgeLabeling, OddCycleNeedsThreeColors) {
  const Graph c5 = make_cycle(5);
  const Problem c2 = make_proper_coloring_problem(2, 2);
  const Problem c3 = make_proper_coloring_problem(2, 3);
  EXPECT_FALSE(solve_graph_halfedge_labeling(c5, c2).has_value());
  EXPECT_TRUE(solve_graph_halfedge_labeling(c5, c3).has_value());
}

TEST(EdgeLabeling, SinklessOrientationOnCycle) {
  // Δ = 2 sinkless orientation on a cycle: orient around — solvable.
  const Graph c6 = make_cycle(6);
  const Problem so = make_sinkless_orientation_problem(2);
  const auto labels = solve_graph_halfedge_labeling(c6, so);
  ASSERT_TRUE(labels.has_value());
}

TEST(EdgeLabeling, ColoringFamilySolvableOnBipartiteGraph) {
  // Π_Δ(k) is solvable whenever a k-coloring exists (give each node the
  // singleton of its color): cycles of even length are 2-colorable.
  const Graph c6 = make_cycle(6);  // bipartite, Δ = 2
  const Problem pi = make_coloring_problem(2, 2);
  const auto labels = solve_graph_halfedge_labeling(c6, pi);
  ASSERT_TRUE(labels.has_value());
}

TEST(EdgeLabelingSat, AgreesWithBacktrackingOnGroundTruth) {
  const std::vector<std::pair<BipartiteGraph, Problem>> instances = {
      {make_bipartite_cycle(4), make_maximal_matching_problem(2)},
      {make_complete_bipartite(3, 3), make_maximal_matching_problem(3)},
      {make_bipartite_cycle(5), make_maximal_matching_problem(2)},
  };
  for (const auto& [g, pi] : instances) {
    SatLabelingStats stats;
    const auto sat = solve_bipartite_labeling_sat(g, pi, 0, &stats);
    const auto bt = solve_bipartite_labeling(g, pi);
    EXPECT_EQ(sat.has_value(), bt.has_value()) << pi.name();
    if (sat) EXPECT_TRUE(check_bipartite_labeling(g, pi, *sat));
    EXPECT_GT(stats.variables, 0u);
  }
}

TEST(EdgeLabelingSat, RandomCrossCheck) {
  // Random small problems on random small biregular graphs: the two
  // deciders must agree exactly.
  Rng rng(555);
  int solvable = 0, unsolvable = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t dw = 2 + rng.below(2);  // 2..3
    const std::size_t db = 2 + rng.below(2);
    const std::size_t alphabet = 2 + rng.below(2);  // 2..3
    LabelRegistry reg;
    for (std::size_t l = 0; l < alphabet; ++l) {
      reg.intern(std::string(1, static_cast<char>('A' + l)));
    }
    Constraint white(dw), black(db);
    const auto fill = [&](Constraint& c, std::size_t d) {
      for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
        if (rng.chance(0.5)) {
          std::vector<Label> labels;
          for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
          c.add(Configuration(std::move(labels)));
        }
        return true;
      });
    };
    fill(white, dw);
    fill(black, db);
    if (white.empty() || black.empty()) continue;
    const Problem pi("random", reg, white, black);

    const std::size_t nw = db * 2, nb = dw * 2;  // nw*dw == nb*db
    auto g = random_biregular(nw, dw, nb, db, rng);
    if (!g) continue;

    const auto bt = solve_bipartite_labeling(*g, pi);
    const auto sat = solve_bipartite_labeling_sat(*g, pi);
    EXPECT_EQ(bt.has_value(), sat.has_value()) << "trial " << trial;
    if (bt) {
      EXPECT_TRUE(check_bipartite_labeling(*g, pi, *bt));
      EXPECT_TRUE(check_bipartite_labeling(*g, pi, *sat));
      ++solvable;
    } else {
      ++unsolvable;
    }
  }
  // The corpus must exercise both outcomes to be meaningful.
  EXPECT_GT(solvable, 5);
  EXPECT_GT(unsolvable, 5);
}

TEST(EdgeLabelingSat, HalfEdgeVariantAgrees) {
  const Graph c5 = make_cycle(5);
  const Problem c2 = make_proper_coloring_problem(2, 2);
  const Problem c3 = make_proper_coloring_problem(2, 3);
  EXPECT_FALSE(solve_graph_halfedge_labeling_sat(c5, c2).has_value());
  const auto labels = solve_graph_halfedge_labeling_sat(c5, c3);
  ASSERT_TRUE(labels.has_value());
  EXPECT_TRUE(check_graph_halfedge_labeling(c5, c3, *labels));
}

TEST(EdgeLabeling, BudgetExhaustionIsReported) {
  const BipartiteGraph g = make_complete_bipartite(4, 4);
  const Problem mm = make_maximal_matching_problem(4);
  LabelingOptions options;
  options.node_budget = 3;
  bool exhausted = false;
  const auto result = solve_bipartite_labeling(g, mm, options, &exhausted);
  EXPECT_FALSE(result.has_value());
  EXPECT_TRUE(exhausted);
}

// -- the extension-index cap: every SAT encoder walks the constraints'
//    sub-multiset automata, so a constraint past the cap is never encoded
//    and the encoder reports its "could not encode" outcome, not a verdict.

/// White degree 23 with one member of 23 distinct labels: 2^23
/// sub-multisets, past the default extension-index cap of 2^22.
Problem past_index_cap_problem() {
  constexpr std::size_t kDegree = 23;
  LabelRegistry reg;
  std::vector<Label> member;
  for (std::size_t l = 0; l < kDegree; ++l) {
    member.push_back(reg.intern("L" + std::to_string(l)));
  }
  Constraint white(kDegree);
  white.add(Configuration(std::move(member)));
  Constraint black(2);
  black.add(Configuration{0, 0});
  return Problem("past-index-cap", reg, white, black);
}

TEST(EncoderIndexCap, LiftCnfIsNotEncoded) {
  const Problem pi = past_index_cap_problem();
  EXPECT_EQ(pi.white().automaton(), nullptr);
  const BipartiteGraph g = make_bipartite_cycle(3);
  EXPECT_FALSE(encode_bipartite_labeling(g, pi).has_value());
  SatLabelingStats stats;
  stats.result = SatResult::kSat;
  EXPECT_FALSE(solve_bipartite_labeling_sat(g, pi, 0, &stats).has_value());
  EXPECT_EQ(stats.result, SatResult::kUnknown);
}

TEST(EncoderIndexCap, IncrementalSweepIsExhausted) {
  IncrementalLabelingSweep sweep(past_index_cap_problem());
  const BipartiteGraph g = make_bipartite_cycle(3);
  EXPECT_EQ(sweep.solve_support(g).verdict, Verdict::kExhausted);
}

TEST(EncoderIndexCap, ZeroRoundIsExhausted) {
  ZeroRoundStats stats;
  EXPECT_FALSE(zero_round_white_algorithm_exists(make_bipartite_cycle(3),
                                                 past_index_cap_problem(), &stats));
  EXPECT_EQ(stats.verdict, Verdict::kExhausted);
}

TEST(EncoderIndexCap, TRoundIsNotDecided) {
  const Problem pi = past_index_cap_problem();
  const BipartiteGraph g = make_bipartite_cycle(3);
  EXPECT_FALSE(t_round_white_algorithm_exists(g, pi, 0).has_value());
  EXPECT_FALSE(t_round_white_algorithm_exists(g, pi, 1).has_value());
}

}  // namespace
}  // namespace slocal
