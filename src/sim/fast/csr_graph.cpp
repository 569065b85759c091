#include "src/sim/fast/csr_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace slocal {

namespace {

CsrBuildError make_error(CsrBuildErrorKind kind, std::size_t index, NodeId u,
                         NodeId v, std::string detail) {
  CsrBuildError error;
  error.kind = kind;
  error.edge_index = index;
  error.u = u;
  error.v = v;
  error.message = "csr: edge " + std::to_string(index) + " (" +
                  std::to_string(u) + ", " + std::to_string(v) +
                  "): " + std::move(detail);
  return error;
}

}  // namespace

const char* to_string(CsrBuildErrorKind kind) {
  switch (kind) {
    case CsrBuildErrorKind::kNone: return "none";
    case CsrBuildErrorKind::kEndpointOutOfRange: return "endpoint out of range";
    case CsrBuildErrorKind::kSelfLoop: return "self-loop";
    case CsrBuildErrorKind::kDuplicateEdge: return "duplicate edge";
    case CsrBuildErrorKind::kTooManyEdges: return "too many edges";
  }
  return "?";
}

void CsrGraph::build_csr(std::size_t node_count) {
  const std::size_t m = edges_.size();
  offsets_.assign(node_count + 1, 0);
  // Counting sort by endpoint: pass 1 degrees, pass 2 placement. Iterating
  // edges in id order appends each node's half-edges in ascending edge-id
  // order — the same port order Graph::incident_edges presents.
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t v = 0; v < node_count; ++v) offsets_[v + 1] += offsets_[v];

  neighbors_.resize(2 * m);
  edge_ids_.resize(2 * m);
  mirror_.resize(2 * m);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = edges_[e];
    const std::uint32_t pu = cursor[edge.u]++;
    const std::uint32_t pv = cursor[edge.v]++;
    neighbors_[pu] = edge.v;
    edge_ids_[pu] = e;
    neighbors_[pv] = edge.u;
    edge_ids_[pv] = e;
    mirror_[pu] = pv;
    mirror_[pv] = pu;
  }

  max_degree_ = 0;
  min_degree_ = node_count == 0 ? 0 : std::numeric_limits<std::size_t>::max();
  for (std::size_t v = 0; v < node_count; ++v) {
    const std::size_t d = offsets_[v + 1] - offsets_[v];
    max_degree_ = std::max(max_degree_, d);
    min_degree_ = std::min(min_degree_, d);
  }
}

CsrGraph CsrGraph::from_graph(const Graph& graph) {
  CsrGraph csr;
  csr.edges_.assign(graph.edges().begin(), graph.edges().end());
  csr.build_csr(graph.node_count());
  return csr;
}

namespace {

/// Endpoint and size checks: everything about the list except duplicates.
/// On rejection fills `*error` (if given) and returns false.
bool endpoints_ok(std::size_t node_count, std::span<const Edge> edges,
                  CsrBuildError* error) {
  const auto reject = [&](CsrBuildError e) {
    if (error != nullptr) *error = std::move(e);
    return false;
  };
  if (edges.size() > CsrGraph::kMaxEdges) {
    return reject(make_error(CsrBuildErrorKind::kTooManyEdges, edges.size(), 0, 0,
                             "edge count overflows the 32-bit id space"));
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= node_count || e.v >= node_count) {
      return reject(make_error(CsrBuildErrorKind::kEndpointOutOfRange, i, e.u, e.v,
                               "endpoint out of range (n = " +
                                   std::to_string(node_count) + ")"));
    }
    if (e.u == e.v) {
      return reject(make_error(CsrBuildErrorKind::kSelfLoop, i, e.u, e.v,
                               "self-loop"));
    }
  }
  return true;
}

}  // namespace

std::optional<CsrGraph> CsrGraph::from_edges(std::size_t node_count,
                                             std::span<const Edge> edges,
                                             CsrBuildError* error,
                                             const CsrBuildOptions& options) {
  if (!endpoints_ok(node_count, edges, error)) return std::nullopt;
  return build_checked(node_count, std::vector<Edge>(edges.begin(), edges.end()),
                       error, options);
}

std::optional<CsrGraph> CsrGraph::build_checked(std::size_t node_count,
                                                std::vector<Edge>&& edges,
                                                CsrBuildError* error,
                                                const CsrBuildOptions& options) {
  CsrGraph csr;
  csr.edges_ = std::move(edges);
  csr.build_csr(node_count);

  // Duplicate detection on the built rows: each edge {u, v} is looked at
  // once, in row min(u, v), and a row lists its edges in ascending id order,
  // so a neighbour seen twice in row u is a duplicate whose first sighting
  // is its first occurrence. `seen_in[v] == u` marks "v already seen in row
  // u"; no valid u equals the initial value (u < v <= NodeId max).
  std::vector<NodeId> seen_in(node_count, std::numeric_limits<NodeId>::max());
  std::vector<std::uint8_t> dropped;
  for (std::size_t row = 0; row < node_count; ++row) {
    const NodeId u = static_cast<NodeId>(row);
    const auto neighbors = csr.neighbors(u);
    const auto ids = csr.edge_ids(u);
    // Rejection reports the smallest duplicated key (u, v) and its second
    // occurrence: the first repeat of the smallest repeated v in this row.
    std::size_t first_repeat = neighbors.size();
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const NodeId v = neighbors[k];
      if (v < u) continue;
      if (seen_in[v] != u) {
        seen_in[v] = u;
        continue;
      }
      if (!options.drop_duplicate_edges) {
        if (first_repeat == neighbors.size() || v < neighbors[first_repeat]) {
          first_repeat = k;
        }
        continue;
      }
      if (dropped.empty()) dropped.assign(csr.edges_.size(), 0);
      dropped[ids[k]] = 1;
    }
    if (first_repeat != neighbors.size()) {
      const EdgeId dup = ids[first_repeat];
      if (error != nullptr) {
        *error = make_error(CsrBuildErrorKind::kDuplicateEdge, dup, csr.edges_[dup].u,
                            csr.edges_[dup].v, "duplicate edge");
      }
      return std::nullopt;
    }
  }
  if (dropped.empty()) return csr;

  // Normalization (rare): keep first occurrences in list order and rebuild.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < csr.edges_.size(); ++i) {
    if (!dropped[i]) csr.edges_[kept++] = csr.edges_[i];
  }
  csr.edges_.resize(kept);
  csr.build_csr(node_count);
  return csr;
}

Graph CsrGraph::to_graph() const {
  Graph g(node_count());
  for (const Edge& e : edges_) {
    const auto id = g.add_edge(e.u, e.v);
    assert(id.has_value());
    (void)id;
  }
  return g;
}

std::optional<CsrGraph> CsrStreamBuilder::finish(CsrBuildError* error,
                                                 const CsrBuildOptions& options) {
  std::vector<Edge> edges = std::exchange(edges_, {});
  if (!endpoints_ok(node_count_, edges, error)) return std::nullopt;
  return CsrGraph::build_checked(node_count_, std::move(edges), error, options);
}

}  // namespace slocal
