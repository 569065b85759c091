// Cross-step round-elimination cache keyed by canonical fingerprints.
//
// `verify_lower_bound_sequence` walks chains of problems that repeat up to
// renaming — by construction for the fixed-point chains of Lemma 5.4. The
// cache stores, per canonical input class, the canonical form of the RE
// output, so the second and later occurrences of a class skip the RE search
// entirely (0 DFS nodes). Values are stored in canonical form, which is
// itself a legal renaming of the true output: every downstream consumer
// (fixed-point checks, relaxation verdicts, size reports) is
// renaming-invariant.
//
// Thread-safe: one mutex guards the table and counters; lookups during a
// parallel sweep serialize only on the (cheap) probe, never on the RE
// computation itself. Opt-in disk persistence lets repeated `slocal_tool
// sequence` runs warm-start across processes.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/formalism/canonical.hpp"
#include "src/formalism/problem.hpp"
#include "src/util/fields.hpp"

namespace slocal {

/// Snapshot of the cache's cumulative counters.
struct RECacheCounters {
  std::size_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  /// Fingerprint matched but the canonical constraints did not (2^-64-ish;
  /// counted so a collision is observable rather than silent).
  std::uint64_t collisions = 0;

  /// The field list (src/util/fields.hpp), in declaration order. The first
  /// kSummaryFields (entries, hits, misses) are what the server's one-line
  /// `stats` reply shows.
  static constexpr std::size_t kSummaryFields = 3;
  template <typename F>
  static constexpr void for_each_field(F&& f) {
    f("entries", &RECacheCounters::entries, Merge::kSum);
    f("hits", &RECacheCounters::hits, Merge::kSum);
    f("misses", &RECacheCounters::misses, Merge::kSum);
    f("insertions", &RECacheCounters::insertions, Merge::kSum);
    f("collisions", &RECacheCounters::collisions, Merge::kSum);
  }
};

class RECache {
 public:
  RECache() = default;
  RECache(const RECache&) = delete;
  RECache& operator=(const RECache&) = delete;

  /// Probes for the canonical input class. Returns the canonical RE output
  /// on a hit. Counts a hit/miss/collision either way.
  std::optional<Problem> lookup(const CanonicalForm& input);

  /// Records `canonical_result` (must be in canonical form) for the class of
  /// `input`. Idempotent: a class already present is left untouched.
  void insert(const CanonicalForm& input, const Problem& canonical_result);

  RECacheCounters counters() const;
  std::size_t size() const;

  /// Disk persistence: a line-oriented text format ("slocal-re-cache 2")
  /// carrying a whole-payload checksum, then each entry's fingerprint, a
  /// per-entry content checksum, and both problems' constraint structure
  /// (canonical registries are synthetic, so only structure is stored).
  /// `load` validates exhaustively — header, raw-byte payload checksum,
  /// counts, label ranges, per-entry checksum, and that the stored input
  /// really canonicalizes to its claimed fingerprint — and rejects the whole
  /// file (leaving the cache unchanged) on any mismatch, so a corrupt cache
  /// can never produce a wrong verdict. Every single byte flip anywhere in
  /// the file is detected (tests/fuzz_test.cpp flips them all). `save` is
  /// atomic — write-temp + fsync + rename, never truncate-in-place — so a
  /// process killed mid-save can leave the old complete file or the new
  /// complete file on disk, never a torn one (tests/serve_test.cpp kills a
  /// saving child at random offsets to pin this). Returns false with
  /// `*error` set on failure.
  bool save(const std::string& path, std::string* error = nullptr) const;
  bool load(const std::string& path, std::string* error = nullptr);

  /// The exact byte stream `save` persists (header, whole-payload checksum,
  /// entries). Exposed so checkpointing layers can control the write
  /// themselves (or deliberately tear it in fault-injection tests) while
  /// staying bit-compatible with `load`.
  std::string serialize() const;

 private:
  struct Entry {
    Problem input;   // canonical form of the RE input
    Problem result;  // canonical form of the RE output
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t collisions_ = 0;
  std::size_t entries_ = 0;
};

}  // namespace slocal
