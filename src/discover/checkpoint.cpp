#include "src/discover/checkpoint.hpp"

#include <sstream>

#include "src/formalism/canonical.hpp"
#include "src/formalism/serialize.hpp"
#include "src/util/atomic_file.hpp"

namespace slocal::discover {

namespace {

/// Chains and frontiers larger than these are not legitimate checkpoints
/// (the driver's own limits are far below); bounding them here keeps a
/// corrupted count from driving a multi-gigabyte parse.
constexpr std::size_t kMaxChain = 4096;
constexpr std::size_t kMaxFrontier = 1 << 20;
constexpr std::size_t kMaxVisited = 1 << 24;

constexpr std::string_view kMagic = "slocal-discover 1";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::string serialize_frontier_checkpoint(const FrontierCheckpoint& cp) {
  std::ostringstream out;
  out << "search " << cp.target_length << ' ' << cp.next_seq << ' '
      << cp.expansions << ' ' << cp.nodes_spent << ' ' << cp.finds_emitted << ' '
      << (cp.definitive ? 1 : 0) << '\n';
  out << "visited " << cp.visited.size() << '\n';
  for (const std::uint64_t fp : cp.visited) out << hex16(fp) << '\n';
  out << "frontier " << cp.frontier.size() << '\n';
  for (const FrontierNode& node : cp.frontier) {
    out << "node " << node.score << ' ' << node.seq << ' ' << node.chain.size()
        << '\n';
    for (std::size_t i = 0; i < node.chain.size(); ++i) {
      out << "fp " << hex16(node.fingerprints[i]) << '\n';
      write_problem(out, node.chain[i]);
    }
  }
  return frame_payload(kMagic, out.str());
}

bool save_frontier_checkpoint(const FrontierCheckpoint& cp, const std::string& path,
                              std::string* error) {
  std::string io_error;
  if (!write_file_atomic(path, serialize_frontier_checkpoint(cp), &io_error)) {
    return fail(error, "discover-checkpoint: " + io_error);
  }
  return true;
}

bool load_frontier_checkpoint(const std::string& path, FrontierCheckpoint* out,
                              std::string* error) {
  std::string payload;
  if (!read_framed_file(path, kMagic, "discover-checkpoint", &payload, error)) {
    return false;
  }

  // Parse and validate everything into a local object; *out is only
  // written after the last byte checked out.
  FrontierCheckpoint cp;
  std::istringstream in(payload);
  std::string tag;
  int definitive = 0;
  if (!(in >> tag >> cp.target_length >> cp.next_seq >> cp.expansions >>
        cp.nodes_spent >> cp.finds_emitted >> definitive) ||
      tag != "search" || (definitive != 0 && definitive != 1)) {
    return fail(error, "discover-checkpoint: malformed search header");
  }
  cp.definitive = definitive == 1;
  if (cp.target_length == 0 || cp.target_length > kMaxChain) {
    return fail(error, "discover-checkpoint: target length out of range");
  }

  std::size_t visited_count = 0;
  if (!(in >> tag >> visited_count) || tag != "visited" ||
      visited_count > kMaxVisited) {
    return fail(error, "discover-checkpoint: malformed visited count");
  }
  cp.visited.reserve(visited_count);
  for (std::size_t i = 0; i < visited_count; ++i) {
    std::uint64_t fp = 0;
    if (!read_hex16(in, &fp)) {
      return fail(error, "discover-checkpoint: malformed visited fingerprint");
    }
    if (i > 0 && fp <= cp.visited.back()) {
      return fail(error, "discover-checkpoint: visited set not sorted");
    }
    cp.visited.push_back(fp);
  }

  std::size_t frontier_count = 0;
  if (!(in >> tag >> frontier_count) || tag != "frontier" ||
      frontier_count > kMaxFrontier) {
    return fail(error, "discover-checkpoint: malformed frontier count");
  }
  cp.frontier.reserve(frontier_count);
  for (std::size_t i = 0; i < frontier_count; ++i) {
    FrontierNode node;
    std::size_t chain_length = 0;
    if (!(in >> tag >> node.score >> node.seq >> chain_length) || tag != "node" ||
        chain_length == 0 || chain_length > kMaxChain) {
      return fail(error, "discover-checkpoint: malformed frontier node");
    }
    node.chain.reserve(chain_length);
    node.fingerprints.reserve(chain_length);
    for (std::size_t j = 0; j < chain_length; ++j) {
      std::uint64_t fp = 0;
      if (!(in >> tag) || tag != "fp" || !read_hex16(in, &fp)) {
        return fail(error, "discover-checkpoint: malformed chain fingerprint");
      }
      Problem p;
      if (!read_problem(in, "chain_" + std::to_string(j), &p, error,
                        "discover-checkpoint")) {
        return false;
      }
      // Defense in depth beyond the checksum: the stored fingerprint must
      // really be the canonical fingerprint of the stored problem, pinning
      // the file to the in-process canonicalization (a checkpoint from an
      // incompatible build is rejected, not silently mis-deduplicated).
      if (canonical_fingerprint(p) != fp) {
        return fail(error,
                    "discover-checkpoint: chain fingerprint does not match "
                    "its problem");
      }
      node.fingerprints.push_back(fp);
      node.chain.push_back(std::move(p));
    }
    cp.frontier.push_back(std::move(node));
  }
  if (in >> tag) {
    return fail(error, "discover-checkpoint: trailing data after frontier");
  }
  *out = std::move(cp);
  return true;
}

}  // namespace slocal::discover
