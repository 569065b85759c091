#include "src/graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

#include "src/graph/metrics.hpp"

namespace slocal {

void stream_cycle(std::size_t n, const EdgeSink& sink) {
  assert(n >= 3);
  for (std::size_t i = 0; i < n; ++i) {
    sink(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
}

void stream_path(std::size_t n, const EdgeSink& sink) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
}

void stream_torus(std::size_t w, std::size_t h, const EdgeSink& sink) {
  assert(w >= 3 && h >= 3);
  const auto id = [&](std::size_t x, std::size_t y) {
    return static_cast<NodeId>(y * w + x);
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      sink(id(x, y), id((x + 1) % w, y));
      sink(id(x, y), id(x, (y + 1) % h));
    }
  }
}

Graph make_cycle(std::size_t n) {
  Graph g(n);
  stream_cycle(n, [&](NodeId u, NodeId v) { g.add_edge(u, v); });
  return g;
}

Graph make_path(std::size_t n) {
  Graph g(n);
  stream_path(n, [&](NodeId u, NodeId v) { g.add_edge(u, v); });
  return g;
}

Graph make_complete(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
  }
  return g;
}

Graph make_star(std::size_t leaves) {
  Graph g(leaves + 1);
  for (std::size_t i = 0; i < leaves; ++i) {
    g.add_edge(0, static_cast<NodeId>(i + 1));
  }
  return g;
}

BipartiteGraph make_complete_bipartite(std::size_t a, std::size_t b) {
  BipartiteGraph g(a, b);
  for (std::size_t w = 0; w < a; ++w) {
    for (std::size_t bl = 0; bl < b; ++bl) {
      g.add_edge(static_cast<NodeId>(w), static_cast<NodeId>(bl));
    }
  }
  return g;
}

BipartiteGraph make_bipartite_cycle(std::size_t half) {
  assert(half >= 2);
  BipartiteGraph g(half, half);
  for (std::size_t i = 0; i < half; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i));
    g.add_edge(static_cast<NodeId>((i + 1) % half), static_cast<NodeId>(i));
  }
  return g;
}

Graph make_torus(std::size_t w, std::size_t h) {
  Graph g(w * h);
  stream_torus(w, h, [&](NodeId u, NodeId v) { g.add_edge(u, v); });
  return g;
}

Graph make_tree(std::size_t branching, std::size_t depth) {
  assert(branching >= 1);
  // Count nodes: root (level 0) has `branching` children; every internal
  // node below has branching-1 children so the tree is branching-regular
  // internally (the usual infinite-Δ-regular-tree truncation).
  std::vector<std::size_t> level_sizes{1};
  for (std::size_t d = 1; d <= depth; ++d) {
    const std::size_t prev = level_sizes.back();
    level_sizes.push_back(d == 1 ? prev * branching : prev * (branching - 1));
  }
  const std::size_t n =
      std::accumulate(level_sizes.begin(), level_sizes.end(), std::size_t{0});
  Graph g(n);
  // Assign ids level by level.
  std::size_t next_id = 1;
  std::vector<NodeId> frontier{0};
  for (std::size_t d = 1; d <= depth; ++d) {
    std::vector<NodeId> next_frontier;
    const std::size_t kids = d == 1 ? branching : branching - 1;
    for (NodeId parent : frontier) {
      for (std::size_t c = 0; c < kids; ++c) {
        const NodeId child = static_cast<NodeId>(next_id++);
        g.add_edge(parent, child);
        next_frontier.push_back(child);
      }
    }
    frontier = std::move(next_frontier);
  }
  return g;
}

namespace {

/// Order-independent 64-bit key of an undirected edge {a, b}.
std::uint64_t edge_key(NodeId a, NodeId b) {
  return (std::uint64_t{std::min(a, b)} << 32) | std::max(a, b);
}

/// Flat open-addressing table over edge keys (linear probing,
/// backward-shift deletion), sized once for m edges. Each slot records two
/// facts about its key: how many current edges carry it (`count`) and
/// whether it is in the repair's edge *set* (`present`). The two differ: the
/// set loses a key when one copy of a parallel edge is rewired even though
/// another copy remains, and the repair's swap decisions depend on exactly
/// that. A slot is freed as soon as both facts are zero, so at most m + 2
/// keys are ever stored and the table never grows.
class EdgeTable {
 public:
  explicit EdgeTable(std::size_t m) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * (m + 2)) ++bits;
    slots_.resize(std::size_t{1} << bits);
    mask_ = slots_.size() - 1;
    shift_ = 64 - bits;
  }

  std::uint32_t count(std::uint64_t key) const {
    const std::size_t i = index_of(key);
    return i == kNotFound ? 0 : slots_[i].count;
  }
  bool present(std::uint64_t key) const {
    const std::size_t i = index_of(key);
    return i != kNotFound && slots_[i].present != 0;
  }

  /// count(key) += delta; delta = -1 requires count(key) >= 1.
  void add_count(std::uint64_t key, int delta) {
    const std::size_t i = claim(key);
    assert(delta > 0 || slots_[i].count > 0);
    slots_[i].count += static_cast<std::uint32_t>(delta);
    release_if_unused(i);
  }
  void insert(std::uint64_t key) { slots_[claim(key)].present = 1; }
  void erase(std::uint64_t key) {
    const std::size_t i = index_of(key);
    if (i == kNotFound) return;
    slots_[i].present = 0;
    release_if_unused(i);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t count = 0;
    std::uint32_t present = 0;
    bool used() const { return count != 0 || present != 0; }
  };
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product mix every key bit.
    return static_cast<std::size_t>(((key ^ (key >> 32)) * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  std::size_t index_of(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used()) return kNotFound;
      if (slots_[i].key == key) return i;
    }
  }
  /// Index of key's slot, taking the first free one on its probe path if
  /// the key is absent (the caller then makes it used).
  std::size_t claim(std::uint64_t key) {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used()) {
        slots_[i].key = key;
        return i;
      }
      if (slots_[i].key == key) return i;
    }
  }
  /// Frees slot i once unused, shifting later members of its probe run back
  /// so that every lookup still reaches its key without tombstones.
  void release_if_unused(std::size_t i) {
    if (slots_[i].used()) return;
    for (std::size_t j = (i + 1) & mask_; slots_[j].used(); j = (j + 1) & mask_) {
      // Slot j may fill the hole at i iff i lies on j's probe path.
      if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        slots_[j] = Slot{};
        i = j;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

/// Configuration model with 2-swap repair: pair stubs uniformly, then fix
/// self-loops and parallel edges by random double-edge swaps that preserve
/// the degree sequence. The stationary distribution is not exactly uniform
/// but has the same whp girth/expansion behaviour, which is all Lemma 2.1
/// asks of the substrate. Returns the repaired (simple) edge list — the
/// single production both random_regular and stream_random_regular consume,
/// which is what guarantees their edge-for-edge equality at equal seeds.
/// Every duplicate test is one EdgeTable probe, so the repair runs in time
/// linear in m plus the number of swaps tried.
std::optional<std::vector<std::pair<NodeId, NodeId>>> regular_with_repair(
    std::size_t n, std::size_t degree, Rng& rng) {
  std::vector<NodeId> stubs;
  stubs.reserve(n * degree);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < degree; ++k) stubs.push_back(static_cast<NodeId>(v));
  }
  rng.shuffle(stubs);

  // Build the multigraph; count multiplicities to find parallels.
  const std::size_t m = stubs.size() / 2;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(m);
  EdgeTable table(m);
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    edges.emplace_back(stubs[i], stubs[i + 1]);
    const std::uint64_t key = edge_key(stubs[i], stubs[i + 1]);
    table.add_count(key, +1);
    table.insert(key);
  }
  // Rewires edge i, keeping the edge set as a set (see EdgeTable).
  const auto set_edge = [&](std::size_t i, NodeId a, NodeId b) {
    table.erase(edge_key(edges[i].first, edges[i].second));
    edges[i] = {a, b};
    table.insert(edge_key(a, b));
  };
  const auto is_defect = [&](std::size_t i) {
    const auto& e = edges[i];
    return e.first == e.second || table.count(edge_key(e.first, e.second)) > 1;
  };

  std::size_t budget = 200 * m + 2000;
  for (std::size_t i = 0; i < m; ++i) {
    while (is_defect(i)) {
      if (budget-- == 0) return std::nullopt;
      const std::size_t j = static_cast<std::size_t>(rng.below(m));
      if (j == i) continue;
      auto [a, b] = edges[i];
      auto [c, d] = edges[j];
      if (rng.chance(0.5)) std::swap(c, d);
      // Proposed swap: (a,b),(c,d) -> (a,d),(c,b).
      if (a == d || c == b) continue;
      if (table.present(edge_key(a, d)) || table.present(edge_key(c, b))) continue;
      table.add_count(edge_key(a, b), -1);
      table.add_count(edge_key(c, d), -1);
      set_edge(i, a, d);
      set_edge(j, c, b);
      table.add_count(edge_key(a, d), +1);
      table.add_count(edge_key(c, b), +1);
    }
  }
  return edges;
}

/// Shared driver: retries the repair until it yields a simple edge list.
std::optional<std::vector<std::pair<NodeId, NodeId>>> regular_edge_list(
    std::size_t n, std::size_t degree, Rng& rng, int max_attempts) {
  if (degree >= n || (n * degree) % 2 != 0) return std::nullopt;
  if (degree == 0) return std::vector<std::pair<NodeId, NodeId>>{};
  for (int a = 0; a < max_attempts; ++a) {
    if (auto edges = regular_with_repair(n, degree, rng)) return edges;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Graph> random_regular(std::size_t n, std::size_t degree, Rng& rng,
                                    int max_attempts) {
  const auto edges = regular_edge_list(n, degree, rng, max_attempts);
  if (!edges) return std::nullopt;
  Graph g(n);
  for (const auto& [a, b] : *edges) {
    if (!g.add_edge(a, b)) return std::nullopt;  // unreachable after repair
  }
  return g;
}

bool stream_random_regular(std::size_t n, std::size_t degree, Rng& rng,
                           const EdgeSink& sink, int max_attempts) {
  const auto edges = regular_edge_list(n, degree, rng, max_attempts);
  if (!edges) return false;
  for (const auto& [a, b] : *edges) sink(a, b);
  return true;
}

namespace {

/// Local search increasing girth by *cycle surgery*: find a shortest
/// cycle, 2-swap one of its edges with a random other edge, and accept
/// whenever the girth does not decrease (equal-girth moves random-walk the
/// remaining short cycles apart until one swap breaks the last of them).
/// Degree sequence is preserved.
Graph improve_girth(Graph g, Rng& rng, std::size_t target, int budget) {
  auto current = girth(g);
  while (current && *current < target && budget-- > 0) {
    const auto cycle = shortest_cycle(g);
    if (!cycle) break;
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(g.edge_count());
    for (const Edge& e : g.edges()) edges.emplace_back(e.u, e.v);

    const std::size_t i =
        static_cast<std::size_t>((*cycle)[rng.below(cycle->size())]);
    const std::size_t j = static_cast<std::size_t>(rng.below(edges.size()));
    if (i == j) continue;
    auto [a, b] = edges[i];
    auto [c, d] = edges[j];
    if (rng.chance(0.5)) std::swap(c, d);
    if (a == d || c == b || a == c || b == d) continue;
    Graph candidate(g.node_count());
    bool ok = true;
    for (std::size_t k = 0; k < edges.size() && ok; ++k) {
      if (k == i) {
        ok = candidate.add_edge(a, d).has_value();
      } else if (k == j) {
        ok = candidate.add_edge(c, b).has_value();
      } else {
        ok = candidate.add_edge(edges[k].first, edges[k].second).has_value();
      }
    }
    if (!ok) continue;
    const auto candidate_girth = girth(candidate);
    if (!candidate_girth || *candidate_girth >= *current) {
      g = std::move(candidate);
      current = candidate_girth;
    }
  }
  return g;
}

}  // namespace

std::optional<Graph> random_regular_high_girth(std::size_t n, std::size_t degree,
                                               Rng& rng, int samples) {
  std::optional<Graph> best;
  std::size_t best_girth = 0;
  for (int s = 0; s < samples; ++s) {
    auto g = random_regular(n, degree, rng);
    if (!g) continue;
    const auto gg = girth(*g);
    const std::size_t value = gg.value_or(n + 1);  // forest counts as best
    if (!best || value > best_girth) {
      best_girth = value;
      best = std::move(g);
    }
  }
  // Push past the sampled girth with degree-preserving cycle surgery; each
  // step costs girth computations, so the search is bounded by edge count.
  if (best && best_girth <= n && best->edge_count() <= 1500) {
    const std::size_t target =
        std::max<std::size_t>(best_girth + 2, 6);  // aim past triangles
    Graph improved =
        improve_girth(std::move(*best), rng, target, static_cast<int>(6 * n));
    best = std::move(improved);
  }
  return best;
}

std::optional<BipartiteGraph> random_biregular(std::size_t nw, std::size_t dw,
                                               std::size_t nb, std::size_t db,
                                               Rng& rng, int max_attempts) {
  if (nw * dw != nb * db) return std::nullopt;
  if (dw > nb || db > nw) return std::nullopt;
  for (int a = 0; a < max_attempts; ++a) {
    std::vector<NodeId> black_stubs;
    black_stubs.reserve(nb * db);
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t k = 0; k < db; ++k) black_stubs.push_back(static_cast<NodeId>(b));
    }
    rng.shuffle(black_stubs);
    BipartiteGraph g(nw, nb);
    bool ok = true;
    std::size_t i = 0;
    for (std::size_t w = 0; w < nw && ok; ++w) {
      for (std::size_t k = 0; k < dw && ok; ++k) {
        ok = g.add_edge(static_cast<NodeId>(w), black_stubs[i++]).has_value();
      }
    }
    if (ok) return g;
  }
  return std::nullopt;
}

std::optional<Hypergraph> random_regular_linear_hypergraph(
    std::size_t n, std::size_t degree, std::size_t rank, Rng& rng,
    int max_attempts) {
  if (rank < 2 || (n * degree) % rank != 0) return std::nullopt;
  const std::size_t m = n * degree / rank;
  for (int a = 0; a < max_attempts; ++a) {
    std::vector<NodeId> stubs;
    stubs.reserve(n * degree);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < degree; ++k) stubs.push_back(static_cast<NodeId>(v));
    }
    rng.shuffle(stubs);
    Hypergraph h(n);
    bool ok = true;
    for (std::size_t e = 0; e < m && ok; ++e) {
      std::vector<NodeId> nodes(stubs.begin() + static_cast<std::ptrdiff_t>(e * rank),
                                stubs.begin() + static_cast<std::ptrdiff_t>((e + 1) * rank));
      ok = h.add_hyperedge(std::move(nodes)).has_value();
    }
    if (ok && h.is_linear()) return h;
  }
  return std::nullopt;
}

}  // namespace slocal

namespace slocal {

Graph make_petersen() {
  Graph g(10);
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -> i+5.
  for (std::size_t i = 0; i < 5; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 5));
    g.add_edge(static_cast<NodeId>(5 + i), static_cast<NodeId>(5 + (i + 2) % 5));
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 5));
  }
  return g;
}

Graph make_heawood() {
  // Standard construction: 14-cycle plus chords i -> i+5 for odd i.
  Graph g(14);
  for (std::size_t i = 0; i < 14; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 14));
  }
  for (std::size_t i = 1; i < 14; i += 2) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 5) % 14));
  }
  return g;
}

Graph make_mcgee() {
  // 24-cycle plus chords: i -> i+12 for i % 3 == 0, i -> i+7 for
  // i % 3 == 1, i -> i+17 for i % 3 == 2 (standard LCF [12,7,-7]^8).
  Graph g(24);
  for (std::size_t i = 0; i < 24; ++i) {
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 24));
  }
  static constexpr int kLcf[3] = {12, 7, -7};
  for (std::size_t i = 0; i < 24; ++i) {
    const int jump = kLcf[i % 3];
    const std::size_t j = (i + static_cast<std::size_t>(jump + 24)) % 24;
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
  }
  return g;
}

}  // namespace slocal

namespace slocal {

Hypergraph make_fano_plane() {
  Hypergraph h(7);
  // Lines of PG(2,2) over points 0..6.
  h.add_hyperedge({0, 1, 2});
  h.add_hyperedge({0, 3, 4});
  h.add_hyperedge({0, 5, 6});
  h.add_hyperedge({1, 3, 5});
  h.add_hyperedge({1, 4, 6});
  h.add_hyperedge({2, 3, 6});
  h.add_hyperedge({2, 4, 5});
  return h;
}

}  // namespace slocal
