// Properties of the fast simulator substrate: CSR builder validation and
// round-trips, streaming ≡ materialized generators, thread-count
// invariance at 10^5 nodes, UID-permutation metamorphic behaviour, budget
// exhaustion without verdict flips, and the message-overflow contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_graph.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/sim/network.hpp"
#include "src/util/budget.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

bool reduced_mode() {
  const char* env = std::getenv("SLOCAL_SIM_DIFF_REDUCED");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// ------------------------------------------------------------ CSR builder

TEST(CsrGraph, FromGraphPreservesPortsExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = random_regular(30, 4, rng);
    ASSERT_TRUE(g.has_value());
    const CsrGraph csr = CsrGraph::from_graph(*g);
    ASSERT_EQ(csr.node_count(), g->node_count());
    ASSERT_EQ(csr.edge_count(), g->edge_count());
    for (NodeId v = 0; v < g->node_count(); ++v) {
      const auto inc = g->incident_edges(v);
      const auto ids = csr.edge_ids(v);
      ASSERT_EQ(ids.size(), inc.size());
      for (std::size_t i = 0; i < inc.size(); ++i) {
        EXPECT_EQ(ids[i], inc[i]);
        EXPECT_EQ(csr.neighbors(v)[i], g->edge(inc[i]).other(v));
      }
    }
  }
}

TEST(CsrGraph, MirrorIsAnInvolutionAcrossEachEdge) {
  Rng rng(12);
  const auto g = random_regular(40, 5, rng);
  ASSERT_TRUE(g.has_value());
  const CsrGraph csr = CsrGraph::from_graph(*g);
  const auto mirror = csr.mirror();
  const auto edge_ids = csr.edge_ids();
  for (std::size_t pos = 0; pos < mirror.size(); ++pos) {
    EXPECT_EQ(mirror[mirror[pos]], pos);
    EXPECT_NE(mirror[pos], pos);
    EXPECT_EQ(edge_ids[mirror[pos]], edge_ids[pos]);
  }
}

TEST(CsrGraph, RejectsOutOfRangeEndpointWithStructuredError) {
  const std::vector<Edge> edges{{0, 1}, {1, 7}, {1, 2}};
  CsrBuildError error;
  EXPECT_FALSE(CsrGraph::from_edges(3, edges, &error).has_value());
  EXPECT_EQ(error.kind, CsrBuildErrorKind::kEndpointOutOfRange);
  EXPECT_EQ(error.edge_index, 1u);
  EXPECT_EQ(error.u, 1u);
  EXPECT_EQ(error.v, 7u);
  EXPECT_NE(error.message.find("edge 1"), std::string::npos);
}

TEST(CsrGraph, RejectsSelfLoopWithStructuredError) {
  const std::vector<Edge> edges{{0, 1}, {2, 2}};
  CsrBuildError error;
  EXPECT_FALSE(CsrGraph::from_edges(3, edges, &error).has_value());
  EXPECT_EQ(error.kind, CsrBuildErrorKind::kSelfLoop);
  EXPECT_EQ(error.edge_index, 1u);
}

TEST(CsrGraph, RejectsDuplicateEdgeEitherOrientation) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {1, 0}};
  CsrBuildError error;
  EXPECT_FALSE(CsrGraph::from_edges(3, edges, &error).has_value());
  EXPECT_EQ(error.kind, CsrBuildErrorKind::kDuplicateEdge);
  EXPECT_EQ(error.edge_index, 2u);
}

TEST(CsrGraph, NormalizesDuplicatesKeepingFirstOccurrence) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {1, 0}, {2, 1}, {2, 0}};
  CsrBuildOptions options;
  options.drop_duplicate_edges = true;
  const auto csr = CsrGraph::from_edges(3, edges, nullptr, options);
  ASSERT_TRUE(csr.has_value());
  ASSERT_EQ(csr->edge_count(), 3u);
  EXPECT_EQ(csr->edge(0).u, 0u);
  EXPECT_EQ(csr->edge(0).v, 1u);
  EXPECT_EQ(csr->edge(1).u, 1u);
  EXPECT_EQ(csr->edge(1).v, 2u);
  EXPECT_EQ(csr->edge(2).u, 2u);
  EXPECT_EQ(csr->edge(2).v, 0u);
}

TEST(CsrGraph, FuzzedEdgeListsEitherRejectOrRoundTrip) {
  Rng rng(13);
  const int trials = reduced_mode() ? 40 : 200;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 2 + rng.below(12);
    const std::size_t m = rng.below(20);
    std::vector<Edge> edges;
    for (std::size_t e = 0; e < m; ++e) {
      // ~10% malformed endpoints to hit the rejection paths.
      const NodeId u = static_cast<NodeId>(rng.below(n + (rng.chance(0.1) ? 3 : 0)));
      const NodeId v = static_cast<NodeId>(rng.below(n + (rng.chance(0.1) ? 3 : 0)));
      edges.push_back({u, v});
    }
    CsrBuildError error;
    const auto csr = CsrGraph::from_edges(n, edges, &error);
    if (!csr.has_value()) {
      EXPECT_NE(error.kind, CsrBuildErrorKind::kNone);
      EXPECT_FALSE(error.message.empty());
      // Normalization must still accept anything whose only defect is
      // duplication.
      if (error.kind == CsrBuildErrorKind::kDuplicateEdge) {
        CsrBuildOptions options;
        options.drop_duplicate_edges = true;
        EXPECT_TRUE(CsrGraph::from_edges(n, edges, nullptr, options).has_value());
      }
      continue;
    }
    // Accepted lists round-trip through Graph with identical ports.
    const Graph g = csr->to_graph();
    const CsrGraph again = CsrGraph::from_graph(g);
    EXPECT_EQ(csr->offsets().size(), again.offsets().size());
    EXPECT_TRUE(std::equal(csr->offsets().begin(), csr->offsets().end(),
                           again.offsets().begin()));
    EXPECT_TRUE(std::equal(csr->neighbors().begin(), csr->neighbors().end(),
                           again.neighbors().begin()));
    EXPECT_TRUE(std::equal(csr->edge_ids().begin(), csr->edge_ids().end(),
                           again.edge_ids().begin()));
    EXPECT_EQ(csr->half_edge_count(), 2 * csr->edge_count());
    EXPECT_EQ(csr->offsets().back(), csr->half_edge_count());
  }
}

/// Reference duplicate check, written independently of the CSR rows: one
/// sort over (packed min/max key, list index) pairs. The reported duplicate
/// is the second occurrence of the smallest duplicated key; normalization
/// keeps each key's first occurrence in list order.
struct SortedDuplicateVerdict {
  std::optional<std::size_t> reported;
  std::vector<Edge> kept;
};

SortedDuplicateVerdict sorted_duplicate_check(const std::vector<Edge>& edges) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint64_t lo = std::min(edges[i].u, edges[i].v);
    const std::uint64_t hi = std::max(edges[i].u, edges[i].v);
    keyed[i] = {(lo << 32) | hi, i};
  }
  std::sort(keyed.begin(), keyed.end());
  SortedDuplicateVerdict verdict;
  std::vector<bool> dropped(edges.size(), false);
  for (std::size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first != keyed[i - 1].first) continue;
    if (!verdict.reported) verdict.reported = keyed[i].second;
    dropped[keyed[i].second] = true;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!dropped[i]) verdict.kept.push_back(edges[i]);
  }
  return verdict;
}

TEST(CsrGraph, DuplicateCheckMatchesSortedReference) {
  // Dense random lists over few nodes, so most lists repeat some edge (in
  // either orientation), several times over. Both entry points — the copying
  // span overload and the stream builder, which hands its list over — must
  // agree with the reference on accept/reject, on the reported (kind,
  // edge_index, u, v, message), and on the normalized edge list.
  Rng rng(14);
  const int trials = reduced_mode() ? 60 : 600;
  for (int trial = 0; trial < trials; ++trial) {
    const bool wide = trial % 10 == 9;
    const std::size_t n = wide ? 200 + rng.below(300) : 2 + rng.below(10);
    const std::size_t m = wide ? 400 + rng.below(800) : rng.below(40);
    std::vector<Edge> edges;
    while (edges.size() < m) {
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = static_cast<NodeId>(rng.below(n));
      if (u == v) continue;
      edges.push_back({u, v});
      // Re-add an earlier edge now and then, so wide lists repeat too.
      if (rng.chance(0.1)) {
        const Edge e = edges[rng.below(edges.size())];
        edges.push_back(rng.chance(0.5) ? e : Edge{e.v, e.u});
      }
    }
    const SortedDuplicateVerdict want = sorted_duplicate_check(edges);
    const auto context = ::testing::Message() << "trial " << trial << " n=" << n
                                              << " m=" << edges.size();

    CsrBuildError error;
    const auto strict = CsrGraph::from_edges(n, edges, &error);
    CsrStreamBuilder builder(n);
    for (const Edge& e : edges) builder.add_edge(e.u, e.v);
    CsrBuildError streamed_error;
    const auto streamed = builder.finish(&streamed_error);
    ASSERT_EQ(strict.has_value(), !want.reported.has_value()) << context;
    ASSERT_EQ(streamed.has_value(), strict.has_value()) << context;
    if (want.reported) {
      const std::size_t dup = *want.reported;
      for (const CsrBuildError* e : {&error, &streamed_error}) {
        EXPECT_EQ(e->kind, CsrBuildErrorKind::kDuplicateEdge) << context;
        EXPECT_EQ(e->edge_index, dup) << context;
        EXPECT_EQ(e->u, edges[dup].u) << context;
        EXPECT_EQ(e->v, edges[dup].v) << context;
        EXPECT_EQ(e->message, "csr: edge " + std::to_string(dup) + " (" +
                                  std::to_string(edges[dup].u) + ", " +
                                  std::to_string(edges[dup].v) +
                                  "): duplicate edge")
            << context;
      }
    }

    CsrBuildOptions options;
    options.drop_duplicate_edges = true;
    const auto normalized = CsrGraph::from_edges(n, edges, nullptr, options);
    ASSERT_TRUE(normalized.has_value()) << context;
    ASSERT_EQ(normalized->edge_count(), want.kept.size()) << context;
    for (std::size_t i = 0; i < want.kept.size(); ++i) {
      EXPECT_EQ(normalized->edge(static_cast<EdgeId>(i)).u, want.kept[i].u) << context;
      EXPECT_EQ(normalized->edge(static_cast<EdgeId>(i)).v, want.kept[i].v) << context;
    }
    // The rebuilt rows are the rows of the normalized list built directly.
    const auto direct = CsrGraph::from_edges(n, want.kept);
    ASSERT_TRUE(direct.has_value()) << context;
    EXPECT_TRUE(std::ranges::equal(normalized->offsets(), direct->offsets())) << context;
    EXPECT_TRUE(std::ranges::equal(normalized->neighbors(), direct->neighbors()))
        << context;
    EXPECT_TRUE(std::ranges::equal(normalized->edge_ids(), direct->edge_ids())) << context;
    EXPECT_TRUE(std::ranges::equal(normalized->mirror(), direct->mirror())) << context;
  }
}

// --------------------------------------------------- streaming generators

TEST(StreamingGenerators, DeterministicFamiliesMatchMaterializedEdgeForEdge) {
  const auto collect = [](auto&& stream) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    stream([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
    return edges;
  };
  const auto graph_edges = [](const Graph& g) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const Edge& e : g.edges()) edges.emplace_back(e.u, e.v);
    return edges;
  };
  for (const std::size_t n : {3u, 10u, 101u}) {
    EXPECT_EQ(collect([&](const EdgeSink& s) { stream_cycle(n, s); }),
              graph_edges(make_cycle(n)));
    EXPECT_EQ(collect([&](const EdgeSink& s) { stream_path(n, s); }),
              graph_edges(make_path(n)));
  }
  EXPECT_EQ(collect([&](const EdgeSink& s) { stream_torus(5, 7, s); }),
            graph_edges(make_torus(5, 7)));
}

TEST(StreamingGenerators, RandomRegularMatchesMaterializedForEqualSeeds) {
  for (const std::uint64_t seed : {1u, 17u, 202u}) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    const auto g = random_regular(40, 4, rng_a);
    ASSERT_TRUE(g.has_value());
    std::vector<std::pair<NodeId, NodeId>> streamed;
    ASSERT_TRUE(stream_random_regular(
        40, 4, rng_b, [&](NodeId u, NodeId v) { streamed.emplace_back(u, v); }));
    ASSERT_EQ(streamed.size(), g->edge_count());
    for (EdgeId e = 0; e < g->edge_count(); ++e) {
      EXPECT_EQ(streamed[e].first, g->edge(e).u) << "edge " << e;
      EXPECT_EQ(streamed[e].second, g->edge(e).v) << "edge " << e;
    }
  }
}

TEST(StreamingGenerators, StreamedInstancesAreRegularAndSimple) {
  Rng rng(21);
  for (const auto& [n, degree] : std::vector<std::pair<std::size_t, std::size_t>>{
           {50, 3}, {64, 4}, {101, 6}}) {
    CsrStreamBuilder builder(n);
    ASSERT_TRUE(stream_random_regular(
        n, degree, rng, [&](NodeId u, NodeId v) { builder.add_edge(u, v); }));
    CsrBuildError error;
    // from_edges validates simplicity: any self-loop or parallel edge in
    // the stream would be a structured rejection here.
    const auto csr = builder.finish(&error);
    ASSERT_TRUE(csr.has_value()) << error.message;
    EXPECT_TRUE(csr->is_regular());
    EXPECT_EQ(csr->max_degree(), degree);
    EXPECT_EQ(csr->edge_count(), n * degree / 2);
  }
}

// ------------------------------------------------------------ determinism

TEST(CsrNetwork, ThreadCountInvarianceAtHundredThousandNodes) {
  // 10^5-node torus streamed straight into CSR; LubyMis is the round-heavy
  // randomized workload. One thread vs all hardware threads must agree on
  // every observable bit.
  const std::size_t w = reduced_mode() ? 60 : 320;
  const std::size_t h = reduced_mode() ? 50 : 313;
  CsrStreamBuilder builder(w * h);
  stream_torus(w, h, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
  auto csr = builder.finish();
  ASSERT_TRUE(csr.has_value());

  std::vector<bool> first_mis;
  std::vector<std::size_t> first_halts;
  CsrRunResult first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    CsrNetwork net(*csr, {});
    LubyMis alg(/*seed=*/4242);
    CsrRunOptions options;
    options.threads = threads;
    const CsrRunResult result = net.run(alg, options);
    ASSERT_TRUE(result.completed) << result.error;
    if (threads == 1) {
      first = result;
      first_mis = alg.in_mis();
      first_halts = net.halt_rounds();
    } else {
      EXPECT_EQ(result.rounds, first.rounds);
      EXPECT_EQ(result.messages_sent, first.messages_sent);
      EXPECT_EQ(alg.in_mis(), first_mis);
      EXPECT_EQ(net.halt_rounds(), first_halts);
    }
  }
}

TEST(CsrNetwork, UidPermutationMetamorphic) {
  // Permute node positions while each node keeps its uid: for uid-driven
  // algorithms the output must follow the permutation exactly — node v in
  // the original and node sigma(v) in the permuted run decide identically.
  Rng rng(31);
  const auto g = random_regular(60, 4, rng);
  ASSERT_TRUE(g.has_value());
  std::vector<std::size_t> sigma(g->node_count());
  std::iota(sigma.begin(), sigma.end(), std::size_t{0});
  rng.shuffle(sigma);

  std::vector<std::uint64_t> uids(g->node_count());
  for (std::size_t v = 0; v < uids.size(); ++v) uids[v] = 500 + 3 * v;
  rng.shuffle(uids);

  Graph permuted(g->node_count());
  std::vector<std::uint64_t> permuted_uids(g->node_count());
  for (const Edge& e : g->edges()) {
    permuted.add_edge(static_cast<NodeId>(sigma[e.u]),
                      static_cast<NodeId>(sigma[e.v]));
  }
  for (std::size_t v = 0; v < uids.size(); ++v) permuted_uids[sigma[v]] = uids[v];

  const auto run_mis = [&](const Graph& graph, std::vector<std::uint64_t> ids,
                           std::uint64_t seed) {
    CsrNetworkConfig config;
    config.uids = std::move(ids);
    CsrNetwork net(CsrGraph::from_graph(graph), std::move(config));
    LubyMis alg(seed);
    CsrRunOptions options;
    options.threads = 4;
    const auto result = net.run(alg, options);
    EXPECT_TRUE(result.completed);
    return std::make_pair(alg.in_mis(), net.halt_rounds());
  };

  const auto [base_mis, base_halts] = run_mis(*g, uids, 99);
  const auto [perm_mis, perm_halts] = run_mis(permuted, permuted_uids, 99);
  for (std::size_t v = 0; v < sigma.size(); ++v) {
    EXPECT_EQ(perm_mis[sigma[v]], base_mis[v]) << "v=" << v;
    EXPECT_EQ(perm_halts[sigma[v]], base_halts[v]) << "v=" << v;
  }
}

// ----------------------------------------------------------------- budget

TEST(CsrNetwork, BudgetExhaustionNeverFlipsTheVerdict) {
  const Graph g = make_torus(8, 8);
  const auto run_with = [&](SearchBudget* budget) {
    CsrNetwork net(CsrGraph::from_graph(g), {});
    LubyMis alg(/*seed=*/7);
    CsrRunOptions options;
    options.budget = budget;
    return std::make_pair(net.run(alg, options), alg.in_mis());
  };
  const auto [unlimited, reference_mis] = run_with(nullptr);
  ASSERT_TRUE(unlimited.completed);

  bool saw_exhausted = false;
  for (const std::uint64_t limit : {1u, 64u, 150u, 500u, 5000u, 1000000u}) {
    SearchBudget budget(limit);
    const auto [result, mis] = run_with(&budget);
    if (result.exhausted) {
      // Partial run: reported unknown, never "completed".
      saw_exhausted = true;
      EXPECT_FALSE(result.completed) << "limit=" << limit;
    } else {
      // Within budget: bit-identical to the unlimited run.
      EXPECT_TRUE(result.completed) << "limit=" << limit;
      EXPECT_EQ(result.rounds, unlimited.rounds);
      EXPECT_EQ(mis, reference_mis);
    }
  }
  EXPECT_TRUE(saw_exhausted) << "no limit actually tripped — test is vacuous";
}

TEST(CsrNetwork, CancelMidRunReportsExhausted) {
  const Graph g = make_cycle(64);
  SearchBudget budget;
  budget.cancel();
  CsrNetwork net(CsrGraph::from_graph(g), {});
  GreedyUidMis alg;
  CsrRunOptions options;
  options.budget = &budget;
  const auto result = net.run(alg, options);
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(result.completed);
}

// --------------------------------------------------------------- overflow

TEST(CsrNetwork, OversizedMessageIsAStructuredErrorNotUb) {
  class Chatty : public Algorithm {
   public:
    void on_start(const NodeContext&, std::vector<Message>&, bool&) override {}
    void on_round(const NodeContext&, std::size_t, const std::vector<Message>&,
                  std::vector<Message>& out, bool&) override {
      for (auto& m : out) m = {1, 2, 3, 4, 5, 6};
    }
  };
  CsrNetwork net(CsrGraph::from_graph(make_cycle(12)), {});
  Chatty alg;
  CsrRunOptions options;
  options.max_message_words = 4;
  const auto result = net.run(alg, options);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("6-word"), std::string::npos) << result.error;
}

TEST(CsrNetwork, InvalidSlotWidthRejected) {
  CsrNetwork net(CsrGraph::from_graph(make_cycle(5)), {});
  GreedyUidMis alg;
  CsrRunOptions options;
  options.max_message_words = 0;
  EXPECT_FALSE(net.run(alg, options).error.empty());
  options.max_message_words = 300;
  EXPECT_FALSE(net.run(alg, options).error.empty());
}

}  // namespace
}  // namespace slocal
