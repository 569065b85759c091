// The round elimination operators R, R̄ and RE = R̄ ∘ R (Appendix B).
//
// R(Π) replaces the black constraint by its *maximal* set-configurations —
// multisets {L_1,...,L_dB} of non-empty label subsets such that every choice
// (l_1 ∈ L_1, ..., l_dB ∈ L_dB) lies in C_B, kept only if not dominated by
// another such multiset under coordinatewise inclusion (up to permutation) —
// and the white constraint by all set-multisets admitting at least one
// choice in C_W. R̄ is R with the white and black roles exchanged.
//
// Lemma B.1: a T-round white algorithm for Π (on high-girth supports)
// yields a (T-1)-round black algorithm for R(Π), and symmetrically for R̄;
// hence RE peels two rounds per application.
//
// Engine notes (this header documents the REOptions contract):
//  * Both sides walk a constraint's sub-multiset automaton. The hardened
//    DFS steps the set of choice prefixes by each candidate set; the
//    maximality filter keeps a valid configuration unless adding one label
//    to one of its sets stays valid (validity is downward closed, so that
//    is exactly domination); the relaxed side runs one choice DFS per
//    multiset. The first two share SubmultisetAutomaton::step_frontier.
//  * `threads` — 0 uses every hardware thread, 1 forces the serial path,
//    n > 1 uses n-way parallelism (a work-stealing pool fans the hardened
//    DFS out over top-level candidate branches and chunks the maximality
//    filter and relaxed-side scan). Output is bit-identical for every
//    thread count: workers fill pre-assigned slots that are merged in
//    canonical order, never racing on shared output.
//  * `stats` — optional REStats accumulator; counters and per-stage wall
//    times are *added* onto it (zero-initialize to measure one call, keep
//    accumulating across calls to profile a whole sequence).
//  * `max_configurations` / `max_alphabet` are unchanged from the serial
//    engine: hard resource caps, exceeded ⇒ nullopt. So is the size cap of
//    a constraint's sub-multiset automaton (Constraint::automaton): each
//    half-step builds the automata of both input constraints once and walks
//    them, leaving the input problem untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/util/bitset.hpp"
#include "src/util/budget.hpp"
#include "src/util/fields.hpp"

namespace slocal {

class RECache;

/// Performance counters for one (or an accumulation of) R / R̄ application.
/// All counters are exact and deterministic for a given input; the *_ms
/// wall times are measured and vary run to run.
struct REStats {
  // Hardened side: DFS over candidate label-sets.
  std::uint64_t dfs_nodes = 0;            ///< candidate extensions attempted
  std::uint64_t partials_deduped = 0;     ///< duplicate choice-prefixes merged
  std::uint64_t extendable_calls = 0;     ///< automaton transitions taken
  std::uint64_t extension_index_entries = 0;  ///< automaton states of the constraints used
  std::uint64_t configs_enumerated = 0;   ///< valid set-configs before maximality
  // Maximality filter: one-label extension tests.
  std::uint64_t maximality_probes = 0;    ///< (config, distinct set, added label) tests
  // Relaxed side: some-choice DFS over new-alphabet multisets.
  std::uint64_t relaxed_multisets = 0;    ///< set-multisets scanned
  // Budgets.
  std::uint64_t budget_exhausted = 0;     ///< applications aborted by a budget
  // Cross-step RE cache (REOptions::cache; see src/re/re_cache.hpp).
  std::uint64_t cache_hits = 0;           ///< RE applications answered from cache
  std::uint64_t cache_misses = 0;         ///< cache probes that fell through
  double canonical_ms = 0.0;              ///< canonicalizing cache keys + RE's output
  // Execution.
  std::size_t threads_used = 0;           ///< max parallelism across merged calls
  double harden_ms = 0.0;
  double dominate_ms = 0.0;
  double relax_ms = 0.0;
  double total_ms = 0.0;

  /// The field list (src/util/fields.hpp): every counter once, in
  /// declaration order. All sum on merge except threads_used (max).
  template <typename F>
  static constexpr void for_each_field(F&& f) {
    f("dfs_nodes", &REStats::dfs_nodes, Merge::kSum);
    f("partials_deduped", &REStats::partials_deduped, Merge::kSum);
    f("extendable_calls", &REStats::extendable_calls, Merge::kSum);
    f("extension_index_entries", &REStats::extension_index_entries, Merge::kSum);
    f("configs_enumerated", &REStats::configs_enumerated, Merge::kSum);
    f("maximality_probes", &REStats::maximality_probes, Merge::kSum);
    f("relaxed_multisets", &REStats::relaxed_multisets, Merge::kSum);
    f("budget_exhausted", &REStats::budget_exhausted, Merge::kSum);
    f("cache_hits", &REStats::cache_hits, Merge::kSum);
    f("cache_misses", &REStats::cache_misses, Merge::kSum);
    f("canonical_ms", &REStats::canonical_ms, Merge::kSum);
    f("threads_used", &REStats::threads_used, Merge::kMax);
    f("harden_ms", &REStats::harden_ms, Merge::kSum);
    f("dominate_ms", &REStats::dominate_ms, Merge::kSum);
    f("relax_ms", &REStats::relax_ms, Merge::kSum);
    f("total_ms", &REStats::total_ms, Merge::kSum);
  }

  REStats& operator+=(const REStats& other);
  /// One `name=value` line over the field list.
  std::string to_string() const;
};

struct REOptions {
  /// Alphabets larger than this are rejected (the subset enumeration is
  /// exponential in |Σ|).
  std::size_t max_alphabet = 16;
  /// Hard cap on enumerated set-configurations (guards runaway cases).
  std::uint64_t max_configurations = 2'000'000;
  /// Candidate label-sets for the hardened side: true (default) restricts
  /// to right-closed sets of the universal diagram — sound because every
  /// maximal configuration consists of right-closed sets — false enumerates
  /// all non-empty subsets (the ablation baseline; same output, slower).
  bool right_closed_candidates = true;
  /// Parallelism: 0 = all hardware threads, 1 = serial, n = n-way.
  /// The result is identical for every value (see header comment).
  std::size_t threads = 0;
  /// Node cap per R / R̄ application, in REStats units: one node per
  /// hardened-DFS extension (dfs_nodes), per valid configuration the
  /// maximality filter scans (configs_enumerated) and per relaxed-side
  /// multiset (relaxed_multisets); 0 = unlimited.
  /// A finite cap forces the serial path so the exhaustion point is
  /// deterministic: the same input and cap either always complete with the
  /// identical result or always abort (nullopt, stats->budget_exhausted
  /// incremented) — never a wrong answer.
  std::uint64_t max_nodes = 0;
  /// Optional shared deadline/cancel token; tripping aborts the application
  /// with nullopt exactly like max_nodes. Unlike max_nodes it does not force
  /// the serial path — deadlines are inherently racy anyway.
  SearchBudget* budget = nullptr;
  /// Optional perf-counter accumulator (see REStats); may be nullptr.
  REStats* stats = nullptr;
  /// Optional cross-step RE cache (see src/re/re_cache.hpp). When set,
  /// `round_eliminate` keys the whole application by the input's canonical
  /// fingerprint: a hit returns the cached canonical output (a legal
  /// renaming of the true result) without running either half-step; a miss
  /// computes the normal result — bit-identical to the cache-off path — and
  /// stores its canonical form. apply_R / apply_Rbar never consult it.
  RECache* cache = nullptr;
};

/// Result of one half-step. `label_meaning[l]` is the subset of the *input*
/// problem's labels that the output label l denotes (label names render as
/// "(A B)" automatically).
struct REStep {
  Problem problem;
  std::vector<SmallBitset> label_meaning;
};

/// R: black side hardened to maximal all-choices configurations, white side
/// relaxed to some-choice configurations over the new alphabet.
std::optional<REStep> apply_R(const Problem& pi, const REOptions& options = {});

/// R̄: same with white and black exchanged.
std::optional<REStep> apply_Rbar(const Problem& pi, const REOptions& options = {});

/// RE(Π) = R̄(R(Π)), with unused labels dropped. When `fingerprint` is set
/// it receives the result's canonical fingerprint: the output's canonical
/// reindex computes it anyway, so only a cache hit pays for it.
std::optional<Problem> round_eliminate(const Problem& pi, const REOptions& options = {},
                                       std::uint64_t* fingerprint = nullptr);

/// True if RE(Π) and Π are the same problem up to label renaming — the
/// fixed-point property of Lemma 5.4.
bool is_fixed_point(const Problem& pi, const REOptions& options = {});

}  // namespace slocal
