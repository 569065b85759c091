// Automatic lower-bound discovery (the search side of Section 2's
// sequences, after "Towards Fully Automatic Distributed Lower Bounds").
//
// Given a problem family — an ordered pool of candidate problems, the first
// entries doubling as search roots — the driver explores the relaxation
// space for lower-bound-sequence witnesses: chains Π_0, …, Π_k in which
// every Π_i is a relaxation of RE(Π_{i-1}) and every element is non-trivial
// (not 0-round solvable in the port-numbering sense). Two kinds of find:
//
//  * a *pumpable* chain — the tip Π satisfies "Π is a relaxation of RE(Π)"
//    (the fixed-point shape of Lemma 5.4), so the chain extends to any
//    target length by repetition;
//  * a plain chain of the requested length, assembled step by step from the
//    move set below.
//
// Moves from a chain tip Π (candidate successors of R = RE(Π)):
//  * pool — family members not yet visited, admitted when the engines find
//    a relaxation witness from R (per-label map first, bounded exact
//    search second — the same ladder verify_lower_bound_sequence climbs);
//  * identity — R itself (a relaxation of itself by the identity map);
//  * merge — quotients of R under a single label merge (the image problem
//    of a surjective 2-to-1 renaming contains every mapped configuration
//    by construction, so the quotient map itself is the witness).
//
// The frontier is best-first over (heuristic score, insertion order) and
// trimmed to a beam; candidates deduplicate globally through canonical
// fingerprints (src/formalism/canonical.hpp), RE steps are answered through
// an optional RECache, and per-expansion engine budgets are steered
// deterministically: when a total node pool is set, each expansion receives
// remaining_pool / live_slots nodes, so cheap expansions (cache hits) leave
// more budget for later slots.
//
// Determinism contract: for a fixed family and options, the discovery log,
// the found chains, and every emitted certificate are byte-identical for
// every `threads` value. All engine searches run under finite node caps,
// which forces their deterministic serial paths (see REOptions::max_nodes
// and RelaxationOptions::node_budget); the driver itself expands strictly
// sequentially. Wall-clock deadlines and cancellation can only turn an
// outcome into kExhausted — never flip found/none (the no-verdict-flip
// guarantee extended to discovery).
//
// The driver is *untrusted*: every find is re-verified and packaged by
// cert::make_sequence_certificate, and the resulting `slocal-cert 1` file
// is checkable by the standalone cert_check binary, which shares no code
// with any of this.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/cert/format.hpp"
#include "src/formalism/problem.hpp"
#include "src/re/re_cache.hpp"
#include "src/util/budget.hpp"
#include "src/util/fields.hpp"

namespace slocal::discover {

/// 0-round triviality in the port-numbering sense: Π is trivial when some
/// white configuration C exists such that every black_degree-multiset over
/// C's label set lies in C_B — then every white node outputs C and every
/// black constraint is met regardless of the support. Trivial problems
/// carry no lower bound, so the driver prunes them from chains.
bool zero_round_trivial(const Problem& p);

/// What a candidate looks like to the scoring heuristic.
struct CandidateView {
  const Problem* problem = nullptr;
  std::size_t depth = 0;  ///< verified steps in the chain ending here
  enum class Origin { kRoot, kPool, kIdentity, kMerge } origin = Origin::kRoot;
};

/// Pluggable frontier scorer. Lower scores expand first. Implementations
/// must be deterministic functions of the view (no clocks, no randomness) —
/// the score is part of the byte-identical discovery log.
class Heuristic {
 public:
  virtual ~Heuristic() = default;
  virtual std::uint64_t score(const CandidateView& view) const = 0;
};

/// Default: prefer small problems (alphabet dominates, then constraint
/// sizes) and reward depth — deep chains are close to the target length.
class SmallFirstHeuristic : public Heuristic {
 public:
  std::uint64_t score(const CandidateView& view) const override;
};

struct DiscoverOptions {
  /// Verified steps a chain needs to count as found (k in Π_0..Π_k).
  std::size_t target_length = 1;
  /// Frontier slots kept after each expansion; excess nodes are evicted
  /// (eviction downgrades a later empty-frontier "none" to "exhausted").
  std::size_t beam_width = 4;
  /// Expansion cap; 0 = unlimited. Hitting it is budget exhaustion.
  std::size_t max_expansions = 256;
  /// Stop after this many finds. 0 behaves as 1.
  std::size_t max_finds = 1;
  /// Engine threads (passed through to RE). The result is bit-identical
  /// for every value — finite node caps force the deterministic paths.
  std::size_t threads = 1;
  /// Per-engine-call node cap when no total pool steers it; 0 picks the
  /// default. Never unlimited: determinism requires finite caps.
  std::uint64_t step_nodes = 0;
  /// Total node pool across the whole search; 0 = no pool (every call gets
  /// step_nodes). When set, the steering rule splits the remaining pool
  /// over the live beam slots before each expansion.
  std::uint64_t total_nodes = 0;
  /// Optional wall-clock/cancel token, polled between engine calls and
  /// passed through to them. Tripping yields kExhausted.
  SearchBudget* budget = nullptr;
  /// Optional cross-run RE cache.
  RECache* cache = nullptr;
  /// Optional scorer; nullptr = SmallFirstHeuristic.
  const Heuristic* heuristic = nullptr;
  /// Crash-safe frontier checkpoint ("slocal-discover 1"): written every
  /// `checkpoint_every` expansions (and on exhaustion) when non-empty.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
};

/// Deterministic counters (REStats-style; no wall times — every field is
/// identical run to run for fixed inputs).
struct DiscoverStats {
  std::uint64_t expansions = 0;          ///< frontier nodes expanded
  std::uint64_t frontier_peak = 0;       ///< max frontier size observed
  std::uint64_t candidates_generated = 0;///< successors proposed by the moves
  std::uint64_t candidates_deduped = 0;  ///< dropped by the fingerprint set
  std::uint64_t candidates_trivial = 0;  ///< dropped by zero_round_trivial
  std::uint64_t candidates_accepted = 0; ///< pushed onto the frontier
  std::uint64_t beam_evictions = 0;      ///< trimmed by the beam
  std::uint64_t pool_rejections = 0;     ///< pool members with no witness
  std::uint64_t pumps_found = 0;         ///< fixed-point pump tests that hit
  std::uint64_t re_failures = 0;         ///< RE caps exceeded (dead nodes)
  std::uint64_t nodes_spent = 0;         ///< engine nodes, deterministic sum
  std::uint64_t cache_hits = 0;          ///< RE cache hits
  std::uint64_t cache_misses = 0;        ///< RE cache misses
  std::uint64_t certs_emitted = 0;       ///< certificates packaged
  std::uint64_t checkpoints_written = 0;
  bool resumed = false;                  ///< search started from a checkpoint

  /// The field list (src/util/fields.hpp), in declaration order.
  template <typename F>
  static constexpr void for_each_field(F&& f) {
    f("expansions", &DiscoverStats::expansions, Merge::kSum);
    f("frontier_peak", &DiscoverStats::frontier_peak, Merge::kMax);
    f("candidates_generated", &DiscoverStats::candidates_generated, Merge::kSum);
    f("candidates_deduped", &DiscoverStats::candidates_deduped, Merge::kSum);
    f("candidates_trivial", &DiscoverStats::candidates_trivial, Merge::kSum);
    f("candidates_accepted", &DiscoverStats::candidates_accepted, Merge::kSum);
    f("beam_evictions", &DiscoverStats::beam_evictions, Merge::kSum);
    f("pool_rejections", &DiscoverStats::pool_rejections, Merge::kSum);
    f("pumps_found", &DiscoverStats::pumps_found, Merge::kSum);
    f("re_failures", &DiscoverStats::re_failures, Merge::kSum);
    f("nodes_spent", &DiscoverStats::nodes_spent, Merge::kSum);
    f("cache_hits", &DiscoverStats::cache_hits, Merge::kSum);
    f("cache_misses", &DiscoverStats::cache_misses, Merge::kSum);
    f("certs_emitted", &DiscoverStats::certs_emitted, Merge::kSum);
    f("checkpoints_written", &DiscoverStats::checkpoints_written, Merge::kSum);
    f("resumed", &DiscoverStats::resumed, Merge::kMax);
  }

  /// One `name=value` line over the field list; deterministic.
  std::string to_string() const;
};

enum class DiscoverStatus {
  kFound,      ///< >= 1 chain found (definitive — never downgraded)
  kNone,       ///< search space exhausted with no find (definitive)
  kExhausted,  ///< a budget tripped first; resume or retry with more
  kCorrupt,    ///< the checkpoint file failed validation; nothing ran
};
const char* to_string(DiscoverStatus s);

/// One verified find. `chain` always has target_length + 1 elements
/// (pumpable chains are padded by repeating the tip); `certificate` is the
/// re-verified sequence certificate for exactly that chain.
struct Discovery {
  std::vector<Problem> chain;
  std::vector<std::uint64_t> fingerprints;  ///< canonical, per element
  bool pumped = false;
  cert::Certificate certificate;
};

struct DiscoverResult {
  DiscoverStatus status = DiscoverStatus::kNone;
  std::vector<Discovery> found;
  DiscoverStats stats;
  /// Line-oriented, deterministic trace of the whole search (roots,
  /// expansions, candidate verdicts, finds). Byte-identical across thread
  /// counts; the metamorphic tests diff it directly.
  std::string log;
};

/// Runs the search. `family` is the ordered candidate pool; every
/// non-trivial member seeds the frontier as a root. When
/// options.checkpoint_path names an existing file, the search resumes from
/// it (a file that fails validation returns kCorrupt without searching).
DiscoverResult run_discovery(const std::vector<Problem>& family,
                             const DiscoverOptions& options = {});

}  // namespace slocal::discover
