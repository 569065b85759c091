#include "src/re/round_elimination.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <string>
#include <unordered_set>

#include "src/formalism/canonical.hpp"
#include "src/formalism/diagram.hpp"
#include "src/re/re_cache.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/epoch_marks.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::string set_name(SmallBitset set, const LabelRegistry& reg) {
  std::vector<std::string> names;
  names.reserve(set.count());
  for (const std::size_t l : set.indices()) names.push_back(reg.name(static_cast<Label>(l)));
  std::string out = "(";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ' ';
    out += names[i];
  }
  out += ')';
  return out;
}

/// A set-configuration: canonical (sorted by raw bits) multiset of subsets.
using SetConfig = std::vector<SmallBitset>;

using State = SubmultisetAutomaton::State;

/// Scratch of one hardened-DFS worker: the partial set of every DFS depth,
/// as deduplicated state ids of the universal constraint's automaton.
struct PartialSets {
  PartialSets(const SubmultisetAutomaton& automaton, std::size_t degree)
      : seen(automaton.state_bound()), at_depth(degree + 1) {
    at_depth[0] = {automaton.root()};
  }

  EpochMarks seen;
  std::vector<std::vector<State>> at_depth;
};

/// Extends every choice-prefix of depth `depth` by every label of
/// `next_set` into depth + 1, deduplicating; fails (returns false) as soon
/// as a prefix stops being extendable inside the universal constraint.
bool extend_partials(const SubmultisetAutomaton& universal, PartialSets& sets,
                     std::size_t depth, SmallBitset next_set, REStats& stats) {
  SubmultisetAutomaton::StepCounts counts;
  const bool ok = universal.step_frontier(sets.at_depth[depth], next_set, sets.seen,
                                          sets.at_depth[depth + 1], &counts);
  stats.extendable_calls += counts.steps;
  stats.partials_deduped += counts.merged;
  return ok;
}

/// Shared state of the (possibly fanned-out) hardened-side DFS.
struct DfsShared {
  const SubmultisetAutomaton& universal;
  std::size_t degree;
  const std::vector<SmallBitset>& candidates;
  std::uint64_t max_configurations;
  SearchBudget* budget;  // may be null; charged one node per extension
  std::atomic<std::uint64_t> total{0};
  std::atomic<bool> overflow{false};
};

/// Serial DFS over non-decreasing candidate indices; `sets.at_depth[d]`
/// (d = chosen.size()) holds every choice prefix of `chosen`, each of which
/// extends to a member of the universal constraint. Appends completed
/// configurations to `out` in canonical DFS order.
void dfs_branch(DfsShared& shared, std::size_t min_candidate,
                std::vector<SmallBitset>& chosen, PartialSets& sets,
                std::vector<SetConfig>& out, REStats& stats) {
  if (shared.overflow.load(std::memory_order_relaxed)) return;
  if (chosen.size() == shared.degree) {
    out.push_back(chosen);
    if (shared.total.fetch_add(1, std::memory_order_relaxed) + 1 >
        shared.max_configurations) {
      shared.overflow.store(true, std::memory_order_relaxed);
    }
    return;
  }
  for (std::size_t c = min_candidate; c < shared.candidates.size(); ++c) {
    ++stats.dfs_nodes;
    if (shared.budget != nullptr && !shared.budget->charge()) return;
    if (!extend_partials(shared.universal, sets, chosen.size(), shared.candidates[c], stats)) {
      continue;
    }
    chosen.push_back(shared.candidates[c]);
    dfs_branch(shared, c, chosen, sets, out, stats);
    chosen.pop_back();
    if (shared.overflow.load(std::memory_order_relaxed)) return;
  }
}

/// Enumerates all valid set-configurations of size `degree` (before the
/// maximality filter). With a pool, fans out over top-level candidate
/// branches; branch outputs are concatenated in candidate order, which
/// reproduces the serial DFS order exactly. Returns nullopt on cap overflow.
std::optional<std::vector<SetConfig>> enumerate_valid_configs(
    const SubmultisetAutomaton& universal, std::size_t degree,
    const std::vector<SmallBitset>& candidates, std::uint64_t max_configurations,
    ThreadPool* pool, SearchBudget* budget, REStats& stats) {
  DfsShared shared{universal, degree, candidates, max_configurations, budget};
  std::vector<SetConfig> valid;

  if (degree == 0) {
    valid.push_back(SetConfig{});
    return valid;
  }

  if (pool == nullptr || candidates.size() < 2) {
    PartialSets sets(universal, degree);
    std::vector<SmallBitset> chosen;
    dfs_branch(shared, 0, chosen, sets, valid, stats);
    if (shared.overflow.load()) return std::nullopt;
    return valid;
  }

  // One branch per top-level candidate; each task owns its output slot,
  // stats slot and scratch, so the merge below is deterministic.
  std::vector<std::vector<SetConfig>> slots(candidates.size());
  std::vector<REStats> branch_stats(candidates.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    tasks.push_back([&, c] {
      REStats& local = branch_stats[c];
      ++local.dfs_nodes;
      if (budget != nullptr && !budget->charge()) return;
      PartialSets sets(universal, degree);
      if (!extend_partials(universal, sets, 0, candidates[c], local)) return;
      std::vector<SmallBitset> chosen{candidates[c]};
      dfs_branch(shared, c, chosen, sets, slots[c], local);
    });
  }
  pool->run_batch(std::move(tasks));

  for (const REStats& s : branch_stats) stats += s;
  if (shared.overflow.load()) return std::nullopt;
  std::size_t total = 0;
  for (const auto& s : slots) total += s.size();
  valid.reserve(total);
  for (auto& s : slots) {
    valid.insert(valid.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
  }
  return valid;
}

/// Runs scan(lo, hi, local) over [0, n): in one piece into `stats` without a
/// pool or below `serial_below` items, else in (workers + 1) * 8 chunks,
/// each counting into its own REStats, merged into `stats` afterwards.
template <typename Scan>
void chunked_scan(std::size_t n, std::size_t serial_below, ThreadPool* pool,
                  REStats& stats, const Scan& scan) {
  if (pool == nullptr || n < serial_below) {
    scan(0, n, stats);
    return;
  }
  const std::size_t chunks = (pool->workers() + 1) * 8;
  std::vector<REStats> chunk_stats(chunks);
  std::vector<std::function<void()>> tasks;
  for (std::size_t k = 0; k < chunks; ++k) {
    const std::size_t lo = n * k / chunks;
    const std::size_t hi = n * (k + 1) / chunks;
    if (lo < hi) tasks.push_back([&, lo, hi, k] { scan(lo, hi, chunk_stats[k]); });
  }
  pool->run_batch(std::move(tasks));
  for (const REStats& s : chunk_stats) stats += s;
}

/// Maximality filter: drops configurations dominated by another valid one.
/// Validity is downward closed, so C is dominated exactly when adding one
/// used label l ∉ C_k to one of its sets keeps every choice inside the
/// universal constraint: the choices of the other positions, stepped
/// through the automaton, must all survive one more step by l. Equal sets
/// sit next to each other, so each distinct set is visited once.
std::vector<SetConfig> maximality_filter(const SubmultisetAutomaton& universal, SmallBitset used,
                                         const std::vector<SetConfig>& valid, ThreadPool* pool,
                                         SearchBudget* budget, REStats& stats) {
  std::vector<char> dominated(valid.size(), 0);
  const auto scan = [&](std::size_t lo, std::size_t hi, REStats& local) {
    EpochMarks seen(universal.state_bound());
    std::vector<State> others, stepped;
    for (std::size_t i = lo; i < hi; ++i) {
      // One node per configuration scanned; a tripped budget leaves the
      // remaining flags unset, which the caller discards wholesale.
      if (budget != nullptr && !budget->charge()) return;
      const SetConfig& config = valid[i];
      bool dom = false;
      for (std::size_t k = 0; k < config.size() && !dom; ++k) {
        if (k > 0 && config[k] == config[k - 1]) continue;
        others.assign(1, universal.root());
        for (std::size_t j = 0; j < config.size(); ++j) {
          if (j == k) continue;
          universal.step_frontier(others, config[j], seen, stepped);
          others.swap(stepped);
        }
        for (std::uint64_t bits = (used - config[k]).raw(); bits != 0 && !dom; bits &= bits - 1) {
          ++local.maximality_probes;
          const SmallBitset added(bits & -bits);
          dom = universal.step_frontier(others, added, seen, stepped);
        }
      }
      dominated[i] = dom ? 1 : 0;
    }
  };

  chunked_scan(valid.size(), 64, pool, stats, scan);

  std::vector<SetConfig> maximal;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (!dominated[i]) maximal.push_back(valid[i]);
  }
  return maximal;
}

/// Does the set-multiset `pick` (indices into `alphabet`) admit at least one
/// choice inside the existential constraint? DFS over its automaton, pruned
/// at dead states; a live state after every position is a member.
bool admits_choice(const SubmultisetAutomaton& existential,
                   const std::vector<SmallBitset>& alphabet,
                   const std::vector<std::size_t>& pick) {
  auto dfs = [&](auto&& self, std::size_t pos, State s) -> bool {
    if (pos == pick.size()) return true;
    for (std::uint64_t bits = alphabet[pick[pos]].raw(); bits != 0; bits &= bits - 1) {
      const State q = existential.next(s, static_cast<Label>(std::countr_zero(bits)));
      if (q != SubmultisetAutomaton::kDead && self(self, pos + 1, q)) return true;
    }
    return false;
  };
  return dfs(dfs, 0, existential.root());
}

/// Relaxed side: all multisets over the new alphabet with >= 1 choice in
/// the existential constraint (given by its automaton and degree), one
/// automaton choice DFS each; with a pool the scan is chunked, each chunk
/// filling its own flag range.
Constraint build_relaxed(const SubmultisetAutomaton& existential, std::size_t degree,
                         const std::vector<SmallBitset>& alphabet, ThreadPool* pool,
                         SearchBudget* budget, REStats& stats) {
  const auto picks = multisets_of_size(alphabet.size(), degree);
  stats.relaxed_multisets += picks.size();

  std::vector<char> admits(picks.size(), 0);
  const auto scan = [&](std::size_t lo, std::size_t hi, REStats&) {
    for (std::size_t i = lo; i < hi; ++i) {
      // One node per multiset; on a tripped budget the caller discards the
      // partially-filled flags.
      if (budget != nullptr && !budget->charge()) return;
      admits[i] = admits_choice(existential, alphabet, picks[i]) ? 1 : 0;
    }
  };

  chunked_scan(picks.size(), 256, pool, stats, scan);

  Constraint relaxed(degree);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (!admits[i]) continue;
    std::vector<Label> labels;
    labels.reserve(degree);
    for (const std::size_t p : picks[i]) labels.push_back(static_cast<Label>(p));
    relaxed.add(Configuration(std::move(labels)));
  }
  return relaxed;
}

/// Shared core of R and R̄: hardens `universal`, relaxes `existential`.
std::optional<REStep> re_core(const Problem& pi, bool universal_is_black,
                              const REOptions& options) {
  if (pi.alphabet_size() > options.max_alphabet) return std::nullopt;
  const Constraint& universal = universal_is_black ? pi.black() : pi.white();
  const Constraint& existential = universal_is_black ? pi.white() : pi.black();

  const auto t_total = Clock::now();
  REStats local;

  // Budget composition: a finite max_nodes gets its own counter chained to
  // the caller's token (so the cap is per-application and deterministic),
  // and forces the serial path so the exhaustion point is too.
  SearchBudget node_cap;
  SearchBudget* budget = options.budget;
  std::size_t requested_threads = options.threads;
  if (options.max_nodes > 0) {
    node_cap.set_node_limit(options.max_nodes);
    if (options.budget != nullptr) node_cap.chain_to(options.budget);
    budget = &node_cap;
    requested_threads = 1;
  }
  const auto exhausted_bail = [&]() -> std::optional<REStep> {
    ++local.budget_exhausted;
    if (options.stats) *options.stats += local;
    return std::nullopt;
  };
  if (budget != nullptr && !budget->keep_going()) return exhausted_bail();

  const std::size_t threads = ThreadPool::resolve_threads(requested_threads);
  local.threads_used = threads;
  std::optional<ThreadPool> pool_storage;
  const auto pool = [&]() -> ThreadPool* {
    if (threads <= 1) return nullptr;
    if (!pool_storage) pool_storage.emplace(threads - 1);
    return &*pool_storage;
  };

  // Candidate subsets, restricted to labels actually used by the universal
  // constraint (a set containing an unused label can never appear in a
  // valid all-choices configuration). By default only right-closed sets of
  // the universal diagram are considered: replacing any set of a valid
  // configuration by its right-closure keeps all choices valid, so maximal
  // configurations use right-closed sets only.
  SmallBitset used;
  for (const Label l : universal.used_labels()) used.set(l);
  std::vector<SmallBitset> candidates;
  if (options.right_closed_candidates) {
    const Diagram diagram(universal, pi.alphabet_size());
    for (const SmallBitset s : diagram.right_closed_sets()) {
      if (used.contains(s)) candidates.push_back(s);
    }
  } else {
    const auto used_indices = used.indices();
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << used_indices.size());
         ++mask) {
      SmallBitset s;
      for (std::size_t i = 0; i < used_indices.size(); ++i) {
        if (mask & (std::uint64_t{1} << i)) s.set(used_indices[i]);
      }
      candidates.push_back(s);
    }
    std::sort(candidates.begin(), candidates.end());
  }

  // Hardened side. The DFS steps through the universal constraint's
  // sub-multiset automaton; it is built before the fan-out so the parallel
  // phase only ever reads it. Past the automaton's size cap the application
  // stops at its resource cap, like max_configurations.
  const auto cap_bail = [&]() -> std::optional<REStep> {
    if (options.stats) *options.stats += local;
    return std::nullopt;
  };
  const auto t_harden = Clock::now();
  const auto universal_automaton = universal.automaton();
  if (!universal_automaton) return cap_bail();
  local.extension_index_entries += universal_automaton->size();
  const auto valid = enumerate_valid_configs(*universal_automaton, universal.degree(),
                                             candidates, options.max_configurations,
                                             candidates.size() >= 8 ? pool() : nullptr,
                                             budget, local);
  if (budget != nullptr && budget->halted()) return exhausted_bail();
  if (!valid) return cap_bail();
  local.configs_enumerated += valid->size();
  local.harden_ms += ms_since(t_harden);

  const auto t_dominate = Clock::now();
  const std::vector<SetConfig> maximal =
      maximality_filter(*universal_automaton, used, *valid,
                        valid->size() >= 64 ? pool() : nullptr, budget, local);
  local.dominate_ms += ms_since(t_dominate);
  if (budget != nullptr && budget->halted()) return exhausted_bail();

  // New alphabet: subsets appearing in at least one maximal configuration.
  std::unordered_set<SmallBitset> alphabet_set;
  for (const auto& config : maximal) {
    for (const SmallBitset s : config) alphabet_set.insert(s);
  }
  std::vector<SmallBitset> alphabet(alphabet_set.begin(), alphabet_set.end());
  std::sort(alphabet.begin(), alphabet.end());
  if (alphabet.size() > 255) {
    // Labels are uint8 indices; larger alphabets cannot be represented.
    return cap_bail();
  }

  LabelRegistry reg;
  for (const SmallBitset s : alphabet) reg.intern(set_name(s, pi.registry()));
  const auto set_index = [&](SmallBitset s) {
    return static_cast<Label>(
        std::lower_bound(alphabet.begin(), alphabet.end(), s) - alphabet.begin());
  };

  // Hardened side: the maximal configurations, as new-label multisets.
  Constraint hardened(universal.degree());
  for (const auto& config : maximal) {
    std::vector<Label> labels;
    labels.reserve(config.size());
    for (const SmallBitset s : config) labels.push_back(set_index(s));
    hardened.add(Configuration(std::move(labels)));
  }

  // Relaxed side.
  const std::uint64_t projected =
      multiset_count(alphabet.size(), existential.degree());
  if (projected > options.max_configurations) return cap_bail();
  const auto t_relax = Clock::now();
  const auto existential_automaton = existential.automaton();
  if (!existential_automaton) return cap_bail();
  local.extension_index_entries += existential_automaton->size();
  Constraint relaxed = build_relaxed(*existential_automaton, existential.degree(), alphabet,
                                     projected >= 256 ? pool() : nullptr, budget, local);
  local.relax_ms += ms_since(t_relax);
  if (budget != nullptr && budget->halted()) return exhausted_bail();

  local.total_ms += ms_since(t_total);
  if (options.stats) *options.stats += local;

  Constraint white = universal_is_black ? std::move(relaxed) : std::move(hardened);
  Constraint black = universal_is_black ? std::move(hardened) : std::move(relaxed);
  Problem out(universal_is_black ? "R(" + pi.name() + ")" : "Rbar(" + pi.name() + ")",
              std::move(reg), std::move(white), std::move(black));
  return REStep{std::move(out), std::move(alphabet)};
}

}  // namespace

REStats& REStats::operator+=(const REStats& other) {
  merge_fields(*this, other);
  return *this;
}

std::string REStats::to_string() const { return render_fields(*this); }

std::optional<REStep> apply_R(const Problem& pi, const REOptions& options) {
  return re_core(pi, /*universal_is_black=*/true, options);
}

std::optional<REStep> apply_Rbar(const Problem& pi, const REOptions& options) {
  return re_core(pi, /*universal_is_black=*/false, options);
}

std::optional<Problem> round_eliminate(const Problem& pi, const REOptions& options,
                                       std::uint64_t* fingerprint) {
  if (options.cache != nullptr) {
    const auto t_canon = Clock::now();
    const CanonicalForm key = canonicalize(pi);
    if (options.stats != nullptr) options.stats->canonical_ms += ms_since(t_canon);
    if (auto cached = options.cache->lookup(key)) {
      if (options.stats != nullptr) ++options.stats->cache_hits;
      if (fingerprint != nullptr) *fingerprint = canonical_fingerprint(*cached);
      // The cached value is the canonical form of RE of this renaming
      // class — a legal renaming of the true output. Only the derived name
      // is restored; no search runs at all.
      return Problem("RE(" + pi.name() + ")", cached->registry(),
                     cached->white(), cached->black());
    }
    if (options.stats != nullptr) ++options.stats->cache_misses;
    REOptions inner = options;
    inner.cache = nullptr;
    auto result = round_eliminate(pi, inner, fingerprint);
    if (result) {
      // drop_unused_labels left the result in canonical label order, so its
      // canonical form is its constraints under the synthetic names.
      LabelRegistry synthetic;
      for (std::size_t l = 0; l < result->alphabet_size(); ++l) {
        synthetic.intern(std::to_string(l));
      }
      options.cache->insert(
          key, Problem(result->name(), std::move(synthetic), result->white(), result->black()));
    }
    return result;
  }
  const auto half = apply_R(pi, options);
  if (!half) return std::nullopt;
  auto full = apply_Rbar(half->problem, options);
  if (!full) return std::nullopt;
  // Reindexing the survivors canonically is RE's share of canonical_ms.
  const auto t_reindex = Clock::now();
  Problem out = drop_unused_labels(full->problem, fingerprint);
  if (options.stats != nullptr) options.stats->canonical_ms += ms_since(t_reindex);
  // Move the pieces out of the reindexed problem rather than deep-copying them.
  return Problem("RE(" + pi.name() + ")", std::move(out.registry()),
                 std::move(out.white()), std::move(out.black()));
}

bool is_fixed_point(const Problem& pi, const REOptions& options) {
  const auto re = round_eliminate(pi, options);
  if (!re) return false;
  return equivalent_up_to_renaming(*re, pi).has_value();
}

}  // namespace slocal
