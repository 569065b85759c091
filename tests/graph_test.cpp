#include <gtest/gtest.h>

#include <cstdint>

#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/hypergraph.hpp"
#include "src/graph/metrics.hpp"
#include "src/graph/transforms.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

TEST(Graph, AddEdgeRejectsLoopsAndParallels) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1).has_value());
  EXPECT_FALSE(g.add_edge(0, 1).has_value());
  EXPECT_FALSE(g.add_edge(1, 0).has_value());
  EXPECT_FALSE(g.add_edge(2, 2).has_value());
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g = make_star(4);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(g.neighbors(0).size(), 4u);
}

TEST(Generators, CycleIsTwoRegularWithFullGirth) {
  const Graph g = make_cycle(7);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(girth(g), 7u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PathHasNoCycle) {
  const Graph g = make_path(5);
  EXPECT_FALSE(girth(g).has_value());
  EXPECT_EQ(component_count(g), 1u);
}

TEST(Generators, CompleteGraphGirthThree) {
  const Graph g = make_complete(5);
  EXPECT_EQ(g.edge_count(), 10u);
  EXPECT_EQ(girth(g), 3u);
}

TEST(Generators, TorusIsFourRegularGirthFour) {
  const Graph g = make_torus(4, 5);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(girth(g), 4u);
}

TEST(Generators, TreeStructure) {
  const Graph g = make_tree(3, 2);
  // Root + 3 children + 3*2 grandchildren.
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_FALSE(girth(g).has_value());
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Generators, CompleteBipartite) {
  const BipartiteGraph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.edge_count(), 12u);
  EXPECT_TRUE(g.is_biregular(4, 3));
  EXPECT_EQ(girth(g), 4u);
}

TEST(Generators, BipartiteCycle) {
  const BipartiteGraph g = make_bipartite_cycle(5);
  EXPECT_TRUE(g.is_biregular(2, 2));
  EXPECT_EQ(g.edge_count(), 10u);
  EXPECT_EQ(girth(g), 10u);
}

TEST(Generators, RandomRegularHasRightDegrees) {
  Rng rng(123);
  for (const auto [n, d] : {std::pair<std::size_t, std::size_t>{10, 3},
                            {16, 4},
                            {30, 3},
                            {20, 5}}) {
    const auto g = random_regular(n, d, rng);
    ASSERT_TRUE(g.has_value()) << "n=" << n << " d=" << d;
    EXPECT_EQ(g->node_count(), n);
    EXPECT_TRUE(g->is_regular());
    EXPECT_EQ(g->max_degree(), d);
  }
}

TEST(Generators, RandomRegularRejectsOddTotal) {
  Rng rng(1);
  EXPECT_FALSE(random_regular(5, 3, rng).has_value());
  EXPECT_FALSE(random_regular(4, 4, rng).has_value());
}

/// Digest of one random_regular call: every edge in id order, then the
/// generator's next draw, so both the edge list and the rng consumption
/// are pinned.
std::uint64_t regular_fingerprint(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  const auto g = random_regular(n, d, rng);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ull; };
  if (g) {
    for (const Edge& e : g->edges()) {
      mix(e.u);
      mix(e.v);
    }
    mix(g->edge_count());
  } else {
    mix(~std::uint64_t{0});
  }
  mix(rng.next());
  return h;
}

TEST(Generators, RandomRegularEdgeListsArePinned) {
  // Every seeded instance downstream (BENCH_SIM fingerprints, the simulator
  // oracles) depends on the configuration-model repair drawing the same
  // numbers and making the same swaps. n=12, d=7 is repair-heavy: most
  // stub pairings need many swaps, and with seed 3 all 500 attempts run
  // out of swap budget, so that row pins the draws of 500 failed repairs.
  struct Row {
    std::size_t n, d;
    std::uint64_t seed, fingerprint;
  };
  const Row rows[] = {
      {12, 7, 1, 0x7494a195722827d5ull},  {12, 7, 2, 0xf830c0d82c985868ull},
      {12, 7, 3, 0xa08700b29a1119f7ull},  {10, 3, 4, 0x6559e58fe89e463full},
      {64, 5, 5, 0x94e588bec19cbc74ull},  {300, 8, 6, 0xb755c178e02a5cd3ull},
      {20000, 4, 1, 0xc2171a217b5cb746ull},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(regular_fingerprint(row.n, row.d, row.seed), row.fingerprint)
        << "n=" << row.n << " d=" << row.d << " seed=" << row.seed;
  }
}

TEST(Generators, HighGirthSelectionImproves) {
  Rng rng(77);
  const auto g = random_regular_high_girth(60, 3, rng, 8);
  ASSERT_TRUE(g.has_value());
  const auto gg = girth(*g);
  ASSERT_TRUE(gg.has_value());
  EXPECT_GE(*gg, 4u);  // best-of-8 should avoid triangles at this size
}

TEST(Generators, RandomBiregular) {
  Rng rng(9);
  const auto g = random_biregular(8, 3, 6, 4, rng);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->is_biregular(3, 4));
}

TEST(Generators, RandomBiregularRejectsMismatch) {
  Rng rng(9);
  EXPECT_FALSE(random_biregular(8, 3, 5, 4, rng).has_value());
}

TEST(Generators, RandomLinearHypergraph) {
  Rng rng(5);
  const auto h = random_regular_linear_hypergraph(15, 2, 3, rng);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->hyperedge_count(), 10u);
  EXPECT_TRUE(h->is_linear());
  EXPECT_EQ(h->max_degree(), 2u);
  EXPECT_EQ(h->max_rank(), 3u);
}

TEST(Metrics, IndependenceOfSmallGraphs) {
  EXPECT_EQ(independence_number_exact(make_complete(6)), 1u);
  EXPECT_EQ(independence_number_exact(make_cycle(6)), 3u);
  EXPECT_EQ(independence_number_exact(make_cycle(7)), 3u);
  EXPECT_EQ(independence_number_exact(make_star(5)), 5u);
  EXPECT_EQ(independence_number_exact(make_path(5)), 3u);
}

TEST(Metrics, GreedyIndependenceIsLowerBound) {
  Rng rng(31);
  const auto g = random_regular(40, 4, rng);
  ASSERT_TRUE(g.has_value());
  const auto exact = independence_number_exact(*g);
  ASSERT_TRUE(exact.has_value());
  const auto greedy = independence_number_greedy(*g);
  EXPECT_LE(greedy, *exact);
  EXPECT_GE(greedy, *exact / 2);  // greedy is a decent heuristic here
}

TEST(Metrics, ChromaticBounds) {
  EXPECT_EQ(chromatic_number_greedy(make_complete(5)), 5u);
  EXPECT_LE(chromatic_number_greedy(make_cycle(6)), 3u);
  EXPECT_EQ(chromatic_lower_bound_from_independence(10, 3), 4u);
  EXPECT_EQ(chromatic_lower_bound_from_independence(9, 3), 3u);
}

TEST(Metrics, ProperColoringCheck) {
  const Graph g = make_cycle(4);
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 0, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 0, 0}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1}));
}

TEST(Metrics, IndependentSetCheck) {
  const Graph g = make_cycle(5);
  EXPECT_TRUE(is_independent_set(g, {0, 2}));
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  EXPECT_FALSE(is_independent_set(g, {0, 0}));
}

TEST(Metrics, BfsDistances) {
  const Graph g = make_path(5);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(d[0], 0u);
}

TEST(Metrics, ComponentCount) {
  const Graph g = disjoint_union(make_cycle(3), make_path(4));
  EXPECT_EQ(component_count(g), 2u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Transforms, DoubleCoverOfOddCycleIsLongCycle) {
  // The bipartite double cover of C_5 is C_10: girth doubles.
  const BipartiteGraph cover = bipartite_double_cover(make_cycle(5));
  EXPECT_EQ(cover.node_count(), 10u);
  EXPECT_TRUE(cover.is_biregular(2, 2));
  EXPECT_EQ(girth(cover), 10u);
}

TEST(Transforms, DoubleCoverPreservesRegularity) {
  Rng rng(19);
  const auto g = random_regular(20, 3, rng);
  ASSERT_TRUE(g.has_value());
  const BipartiteGraph cover = bipartite_double_cover(*g);
  EXPECT_TRUE(cover.is_biregular(3, 3));
  const auto base_girth = girth(*g);
  const auto cover_girth = girth(cover);
  ASSERT_TRUE(base_girth.has_value());
  ASSERT_TRUE(cover_girth.has_value());
  EXPECT_GE(*cover_girth, *base_girth);
}

TEST(Transforms, InducedSubgraph) {
  const Graph g = make_cycle(6);
  const auto sub = induced_subgraph(g, {0, 1, 2, 4});
  EXPECT_EQ(sub.graph.node_count(), 4u);
  EXPECT_EQ(sub.graph.edge_count(), 2u);  // 0-1, 1-2 survive
  EXPECT_EQ(sub.original.size(), 4u);
}

TEST(Transforms, EdgeSubgraphOfBipartite) {
  const BipartiteGraph g = make_complete_bipartite(2, 2);
  std::vector<bool> keep(g.edge_count(), false);
  keep[0] = true;
  const BipartiteGraph sub = edge_subgraph(g, keep);
  EXPECT_EQ(sub.edge_count(), 1u);
  EXPECT_EQ(sub.white_count(), 2u);
}

TEST(Hypergraph, IncidenceRoundTrip) {
  Hypergraph h(5);
  ASSERT_TRUE(h.add_hyperedge({0, 1, 2}).has_value());
  ASSERT_TRUE(h.add_hyperedge({2, 3, 4}).has_value());
  EXPECT_FALSE(h.add_hyperedge({1, 1, 3}).has_value());
  EXPECT_TRUE(h.is_linear());
  const BipartiteGraph inc = h.incidence_graph();
  EXPECT_EQ(inc.white_count(), 5u);
  EXPECT_EQ(inc.black_count(), 2u);
  EXPECT_EQ(inc.edge_count(), 6u);
  const Hypergraph back = Hypergraph::from_incidence(inc);
  EXPECT_EQ(back.hyperedge_count(), 2u);
  EXPECT_EQ(back.rank(0), 3u);
}

TEST(Hypergraph, NonLinearDetected) {
  Hypergraph h(4);
  h.add_hyperedge({0, 1, 2});
  h.add_hyperedge({0, 1, 3});
  EXPECT_FALSE(h.is_linear());
}

TEST(Hypergraph, FromGraph) {
  const Hypergraph h = Hypergraph::from_graph(make_cycle(4));
  EXPECT_EQ(h.hyperedge_count(), 4u);
  EXPECT_EQ(h.max_rank(), 2u);
  EXPECT_EQ(h.max_degree(), 2u);
  EXPECT_TRUE(h.is_linear());
}

TEST(Transforms, PadToExactSize) {
  const BipartiteGraph base = make_complete_bipartite(2, 2);
  for (const std::size_t target : {4u, 5u, 6u, 9u}) {
    const BipartiteGraph padded = pad_to_exact_size(base, target);
    EXPECT_EQ(padded.node_count(), target);
    // Base edges survive; padding nodes have degree <= 2.
    EXPECT_GE(padded.edge_count(), base.edge_count());
    for (NodeId w = 2; w < padded.white_count(); ++w) {
      EXPECT_LE(padded.white_degree(w), 2u);
    }
    for (NodeId b = 2; b < padded.black_count(); ++b) {
      EXPECT_LE(padded.black_degree(b), 2u);
    }
  }
}

}  // namespace
}  // namespace slocal
