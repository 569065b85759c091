// Compact CSR (compressed sparse row) representation of a support graph —
// the substrate of the million-node Supported LOCAL simulator.
//
// Where `Graph` keeps one heap-allocated adjacency vector per node (ideal
// for incremental construction and small instances), CsrGraph packs the
// whole topology into four flat arrays:
//
//   offsets    n+1   half-edge range of node v is [offsets[v], offsets[v+1])
//   neighbors  2m    neighbor node id per half-edge
//   edge_ids   2m    undirected edge id per half-edge
//   mirror     2m    position of the reverse half-edge (v -> u for u -> v)
//
// Half-edges of a node appear in ascending edge-id order — exactly the
// order `Graph::incident_edges` reports — so a CsrGraph built from a Graph
// presents every node with identical ports, and a simulator running on
// either representation routes messages identically. `mirror` makes a
// synchronous message exchange a single indexed gather with no per-round
// routing table (the BGPExtrapolator-style propagation layout).
//
// Construction is either a copy from an existing `Graph` (infallible) or a
// validating build from a flat edge list (`from_edges` / CsrStreamBuilder),
// which is how the streaming generators emit 10^6..10^7-node instances
// without ever materializing per-node adjacency vectors. Validation is
// structured: out-of-range endpoints, self-loops, and duplicate edges are
// reported with the offending edge index, and duplicates can optionally be
// normalized away (first occurrence kept) instead of rejected. The build is
// linear time: endpoints are checked in one pass, the CSR is laid out by a
// counting sort, and duplicates are found in one scan of the built rows
// with a per-node scratch array (each edge is checked once, in the row of
// its smaller endpoint). A rejected duplicate is reported as the second
// occurrence of the smallest duplicated (min, max) endpoint pair; with
// normalization on, the survivors are compacted and the rows rebuilt.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.hpp"

namespace slocal {

/// Why a CSR build rejected its edge list.
enum class CsrBuildErrorKind : std::uint8_t {
  kNone = 0,
  kEndpointOutOfRange,  // u or v >= node_count
  kSelfLoop,            // u == v
  kDuplicateEdge,       // {u, v} already present (and normalization is off)
  kTooManyEdges,        // edge/half-edge count overflows the 32-bit id space
};

const char* to_string(CsrBuildErrorKind kind);

/// Structured rejection: which edge, which endpoints, and why. `message` is
/// the preformatted human-readable line the CLI and tests surface.
struct CsrBuildError {
  CsrBuildErrorKind kind = CsrBuildErrorKind::kNone;
  std::size_t edge_index = 0;  // index into the offending edge list
  NodeId u = 0;
  NodeId v = 0;
  std::string message;
};

struct CsrBuildOptions {
  /// Keep the first occurrence of a duplicate undirected edge and drop the
  /// rest (normalization) instead of rejecting the list.
  bool drop_duplicate_edges = false;
};

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Infallible copy from a (simple by construction) Graph. Ports match
  /// Graph::incident_edges order exactly.
  static CsrGraph from_graph(const Graph& graph);

  /// Most edges a CsrGraph holds: half-edge positions must fit in 32 bits.
  static constexpr std::size_t kMaxEdges = std::numeric_limits<EdgeId>::max() / 2;

  /// Validating build from a flat edge list. Edge ids are assigned in list
  /// order (after normalization, if enabled). Returns nullopt and fills
  /// `*error` on rejection.
  static std::optional<CsrGraph> from_edges(std::size_t node_count,
                                            std::span<const Edge> edges,
                                            CsrBuildError* error = nullptr,
                                            const CsrBuildOptions& options = {});

  std::size_t node_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t edge_count() const { return edges_.size(); }
  std::size_t half_edge_count() const { return neighbors_.size(); }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  std::size_t degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }
  std::size_t max_degree() const { return max_degree_; }
  std::size_t min_degree() const { return min_degree_; }
  bool is_regular() const { return node_count() == 0 || max_degree_ == min_degree_; }

  /// Half-edge range of node v (positions into neighbors()/edge_ids()).
  std::uint32_t offset(NodeId v) const { return offsets_[v]; }
  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offsets_[v], degree(v)};
  }
  std::span<const EdgeId> edge_ids(NodeId v) const {
    return {edge_ids_.data() + offsets_[v], degree(v)};
  }

  // Flat views (the simulator's hot loop indexes these directly).
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const NodeId> neighbors() const { return neighbors_; }
  std::span<const EdgeId> edge_ids() const { return edge_ids_; }
  std::span<const std::uint32_t> mirror() const { return mirror_; }

  /// Expands back into a Graph (test/debug helper; allocates per node).
  Graph to_graph() const;

 private:
  friend class CsrStreamBuilder;

  /// Builds from an endpoint-checked list, which becomes the graph's edge
  /// list, and runs the duplicate check.
  static std::optional<CsrGraph> build_checked(std::size_t node_count,
                                               std::vector<Edge>&& edges,
                                               CsrBuildError* error,
                                               const CsrBuildOptions& options);
  void build_csr(std::size_t node_count);

  std::vector<Edge> edges_;
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> neighbors_;
  std::vector<EdgeId> edge_ids_;
  std::vector<std::uint32_t> mirror_;
  std::size_t max_degree_ = 0;
  std::size_t min_degree_ = 0;
};

/// Accumulates a streamed edge sequence (from the streaming generators)
/// and finalizes it into a validated CsrGraph. Only the flat edge list is
/// buffered — never per-node adjacency — and `finish` moves that buffer
/// into the graph as its edge list, so the build's peak is the finished
/// CsrGraph (8 bytes/edge of edge list plus 24 bytes/edge of CSR arrays)
/// and a 4-byte/node scratch array for the duplicate check.
class CsrStreamBuilder {
 public:
  explicit CsrStreamBuilder(std::size_t node_count) : node_count_(node_count) {}

  void add_edge(NodeId u, NodeId v) { edges_.push_back({u, v}); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Validates and builds; the builder is left empty either way.
  std::optional<CsrGraph> finish(CsrBuildError* error = nullptr,
                                 const CsrBuildOptions& options = {});

 private:
  std::size_t node_count_;
  std::vector<Edge> edges_;
};

}  // namespace slocal
