#include "src/formalism/relaxation.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/util/bitset.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/epoch_marks.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal {

namespace {

constexpr std::uint64_t kUnlimitedNodes = ~std::uint64_t{0};

Configuration remap(const Configuration& c, const std::vector<Label>& map) {
  std::vector<Label> out;
  out.reserve(c.size());
  for (const Label l : c.labels()) out.push_back(map[l]);
  return Configuration(std::move(out));
}

bool label_map_valid(const Problem& pi, const Problem& pi_prime,
                     const std::vector<Label>& map) {
  const auto ok = [&](const Constraint& from, const Constraint& to) {
    return std::all_of(from.members().begin(), from.members().end(),
                       [&](const Configuration& c) { return to.contains(remap(c, map)); });
  };
  return ok(pi.white(), pi_prime.white()) && ok(pi.black(), pi_prime.black());
}

using State = SubmultisetAutomaton::State;

/// Source configurations bucketed by their maximum label: a configuration in
/// bucket k becomes fully mapped the moment m(k) is assigned, so the search
/// can reject a prefix m(0..k) without ever extending it. The pruning is
/// exact — a configuration that fails under the prefix fails under every
/// extension — so the serial search visits the same valid leaves in the same
/// order as a leaf-only check would, just without the dead subtrees. The
/// test walks the target constraint's automaton through m(·): no image
/// configuration is built.
struct MaxLabelBuckets {
  struct Entry {
    std::size_t offset;  // into `labels`
    std::size_t size;
    const SubmultisetAutomaton* target;
  };
  std::vector<Label> labels;  // every source configuration, concatenated
  std::vector<std::vector<Entry>> at;

  /// `white_prime` / `black_prime` are the automata of Π''s constraints.
  MaxLabelBuckets(const Problem& pi, const SubmultisetAutomaton& white_prime,
                  const SubmultisetAutomaton& black_prime) {
    at.resize(pi.alphabet_size());
    const auto add = [&](const Constraint& from, const SubmultisetAutomaton& to) {
      for (const Configuration& c : from.members()) {
        Label mx = 0;
        for (const Label l : c.labels()) mx = std::max(mx, l);
        at[mx].push_back({labels.size(), c.size(), &to});
        labels.insert(labels.end(), c.labels().begin(), c.labels().end());
      }
    };
    add(pi.white(), white_prime);
    add(pi.black(), black_prime);
  }

  /// All configurations whose labels are <= level map inside Π' under `map`
  /// (only entries map[0..level] are read).
  bool ok_at(std::size_t level, const std::vector<Label>& map) const {
    for (const Entry& e : at[level]) {
      State s = e.target->root();
      for (std::size_t k = 0; k < e.size && s != SubmultisetAutomaton::kDead; ++k) {
        s = e.target->next(s, map[labels[e.offset + k]]);
      }
      if (s == SubmultisetAutomaton::kDead) return false;
    }
    return true;
  }
};

struct LabelMapSearch {
  const MaxLabelBuckets& buckets;
  std::size_t source_labels;
  std::size_t target_labels;
  std::size_t first_lo, first_hi;       // images tried for label 0
  std::uint64_t node_limit;             // kUnlimitedNodes when uncapped
  SearchBudget* shared = nullptr;       // optional deadline/cancel token
  const std::atomic<bool>* stop = nullptr;  // parallel first-wins flag
  std::uint64_t visited = 0;
  bool exhausted = false;

  /// Tries every image for map[level] in increasing order, so the first
  /// completed map is the lexicographically smallest valid one.
  bool recurse(std::size_t level, std::vector<Label>& map) {
    if (level == source_labels) return true;
    const std::size_t hi = level == 0 ? first_hi : target_labels;
    for (std::size_t t = level == 0 ? first_lo : 0; t < hi; ++t) {
      if (exhausted) return false;
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
      if (++visited > node_limit ||
          (shared != nullptr && !shared->charge())) {
        exhausted = true;
        return false;
      }
      map[level] = static_cast<Label>(t);
      if (!buckets.ok_at(level, map)) continue;
      if (recurse(level + 1, map)) return true;
    }
    return false;
  }
};

/// r(l): union over mapping entries of image labels at positions where the
/// (sorted) source configuration holds l.
std::vector<SmallBitset> relation_of(const Problem& pi, const ConfigMapping& mapping) {
  std::vector<SmallBitset> r(pi.alphabet_size());
  for (const auto& [source, image] : mapping) {
    assert(image.size() == source.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      r[source[i]].set(image[i]);
    }
  }
  return r;
}

/// All black configurations of Π survive all choices over r(·) in Π'.
/// Positions with empty r impose no constraint yet (used during search,
/// where r only grows: a violation found on partial r is final).
bool black_side_ok(const Problem& pi, const Problem& pi_prime,
                   const std::vector<SmallBitset>& r) {
  for (const auto& black : pi.black().members()) {
    std::vector<std::vector<std::size_t>> choices;
    choices.reserve(black.size());
    bool any_empty = false;
    for (const Label l : black.labels()) {
      auto idx = r[l].indices();
      if (idx.empty()) {
        any_empty = true;
        break;
      }
      choices.push_back(std::move(idx));
    }
    if (any_empty) continue;
    const bool all_ok =
        for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
          std::vector<Label> labels;
          labels.reserve(pick.size());
          for (const std::size_t p : pick) labels.push_back(static_cast<Label>(p));
          return pi_prime.black().contains(Configuration(std::move(labels)));
        });
    if (!all_ok) return false;
  }
  return true;
}

/// Every distinct positional image of a target white configuration: all
/// distinct permutations of its label vector.
std::vector<std::vector<Label>> positional_images(const Configuration& target) {
  std::vector<Label> perm(target.labels().begin(), target.labels().end());
  std::vector<std::vector<Label>> out;
  std::sort(perm.begin(), perm.end());
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

/// Read-only tables of one witness search, shared by every fan-out task.
struct WitnessTables {
  const SubmultisetAutomaton& black_prime;  // automaton of C_B(Π')
  std::vector<Configuration> sources;       // white configurations of Π, sorted
  std::vector<std::vector<Label>> images;   // every positional image
  std::size_t black_degree = 0;
  std::vector<Label> black_labels;          // black configurations of Π, concatenated
  std::vector<std::vector<std::size_t>> black_with;  // label -> configurations holding it
  /// At black degree 0 no r(·) ever matters: the empty black configuration
  /// of Π passes iff C_B(Π') holds it too.
  bool unlabeled_black_ok;

  WitnessTables(const Problem& pi, const Problem& pi_prime,
                const SubmultisetAutomaton& black_prime_automaton)
      : black_prime(black_prime_automaton),
        sources(pi.white().sorted_members()),
        black_degree(pi.black_degree()),
        black_with(pi.alphabet_size()),
        unlabeled_black_ok(black_degree > 0 || pi.black().empty() ||
                           pi_prime.black().contains(Configuration{})) {
    for (const auto& target : pi_prime.white().sorted_members()) {
      const auto perms = positional_images(target);
      images.insert(images.end(), perms.begin(), perms.end());
    }
    std::size_t index = 0;
    for (const Configuration& black : pi.black().sorted_members()) {
      const auto labels = black.labels();
      black_labels.insert(black_labels.end(), labels.begin(), labels.end());
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i == 0 || labels[i] != labels[i - 1]) black_with[labels[i]].push_back(index);
      }
      ++index;
    }
  }
};

/// The r-images of a black configuration's labels, sorted by raw bits.
using ImageMultiset = std::vector<SmallBitset>;

struct ImageMultisetHash {
  std::size_t operator()(const ImageMultiset& sets) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const SmallBitset s : sets) h = (h ^ s.raw()) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Backtracking over one image per source. r(·) only grows along a branch,
/// so a black configuration that fails is final, and one whose labels' r
/// did not grow passes as it did at the parent: after each image only the
/// black configurations holding a grown label are re-checked, once per
/// distinct image multiset and the one that failed last first. A check steps
/// the set of all choice prefixes of the configuration's r-images through
/// C_B(Π')'s automaton, memoized per image multiset.
struct RelaxSearch {
  const WitnessTables& tables;
  std::size_t first_lo, first_hi;  // images tried for source 0
  std::uint64_t budget;
  SearchBudget* shared = nullptr;           // optional deadline/cancel token
  const std::atomic<bool>* stop = nullptr;  // parallel first-wins flag
  std::uint64_t visited = 0;
  bool exhausted = false;
  std::vector<std::size_t> chosen;  // image index per source
  std::vector<SmallBitset> r;
  std::vector<std::pair<Label, SmallBitset>> undo;  // (label, r before growth)
  /// Verdict per sorted r-image multiset; r-images never change meaning.
  std::unordered_map<ImageMultiset, bool, ImageMultisetHash> memo;
  // Scratch of one trial: a class per label (equal r share one, kVacuous
  // for an empty r), the weight (d+1)^class of each class, and the image
  // multisets already tested, keyed by the sum of their labels' weights
  // (exact: a class occurs at most d times).
  static constexpr std::uint32_t kVacuous = ~std::uint32_t{0};
  std::vector<std::uint32_t> label_class;
  std::vector<SmallBitset> class_sets;
  std::vector<std::uint64_t> class_weight;
  std::unordered_set<std::uint64_t> tested;
  ImageMultiset sorted_images;
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::size_t last_failed = kNone;  // black configuration that failed last
  // Scratch of one walk: dedup over automaton states and the two
  // partial-set buffers.
  EpochMarks state_seen;
  std::vector<State> partials, extended;

  RelaxSearch(const WitnessTables& t, std::size_t lo, std::size_t hi, std::uint64_t node_limit,
              SearchBudget* shared_budget, const std::atomic<bool>* stop_flag,
              std::size_t source_labels)
      : tables(t), first_lo(lo), first_hi(hi), budget(node_limit), shared(shared_budget),
        stop(stop_flag), chosen(t.sources.size()), r(source_labels),
        label_class(source_labels), state_seen(t.black_prime.state_bound()) {}

  /// Every choice over r(·) of black configuration `index` lies in C_B(Π'),
  /// all of its r(·) being non-empty.
  bool black_ok(std::size_t index) {
    const Label* labels = &tables.black_labels[index * tables.black_degree];
    sorted_images.clear();
    for (std::size_t k = 0; k < tables.black_degree; ++k) sorted_images.push_back(r[labels[k]]);
    std::sort(sorted_images.begin(), sorted_images.end());
    if (const auto it = memo.find(sorted_images); it != memo.end()) return it->second;
    const bool ok = all_choices_within();
    memo.emplace(sorted_images, ok);
    return ok;
  }

  /// Every choice over the sets of `sorted_images` lies in C_B(Π'): steps
  /// the set of all choice prefixes through its automaton.
  bool all_choices_within() {
    partials.assign(1, tables.black_prime.root());
    for (const SmallBitset images : sorted_images) {
      if (!tables.black_prime.step_frontier(partials, images, state_seen, extended)) return false;
      partials.swap(extended);
    }
    return true;
  }

  /// The image multiset of black configuration `index` as the sum of its
  /// labels' class weights, or nullopt when some r(·) is still empty.
  std::optional<std::uint64_t> image_key(std::size_t index) const {
    const Label* labels = &tables.black_labels[index * tables.black_degree];
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < tables.black_degree; ++k) {
      const std::uint32_t c = label_class[labels[k]];
      if (c == kVacuous) return std::nullopt;
      sum += class_weight[c];
    }
    return sum;
  }

  /// Classes of the current r(·). Returns false when the weights of that
  /// many classes overflow 64 bits, so the keys would not be exact.
  bool assign_classes() {
    class_sets.clear();
    class_weight.clear();
    const std::uint64_t base = tables.black_degree + 1;
    bool exact = true;
    for (std::size_t l = 0; l < r.size(); ++l) {
      if (r[l].empty()) {
        label_class[l] = kVacuous;
        continue;
      }
      const auto at = std::find(class_sets.begin(), class_sets.end(), r[l]);
      label_class[l] = static_cast<std::uint32_t>(at - class_sets.begin());
      if (at != class_sets.end()) continue;
      const std::uint64_t weight = class_weight.empty() ? 1 : class_weight.back() * base;
      exact = exact && weight <= ~std::uint64_t{0} / base;  // every key < base * weight
      class_weight.push_back(exact ? weight : 0);
      class_sets.push_back(r[l]);
    }
    return exact;
  }

  /// Re-checks the black configurations holding a label grown since undo
  /// position `mark`, once per distinct image multiset. Configurations with
  /// an empty r(·) pass vacuously.
  bool grown_black_ok(std::size_t mark) {
    const bool exact_keys = assign_classes();
    tested.clear();
    // The trial's answer is the AND over its configurations, so the order
    // is free: the configuration that failed last is tried first. (One
    // without a grown label passes, as it did at the parent.)
    if (last_failed != kNone && image_key(last_failed) && !black_ok(last_failed)) return false;
    for (std::size_t u = mark; u < undo.size(); ++u) {
      for (const std::size_t index : tables.black_with[undo[u].first]) {
        const auto multiset = image_key(index);
        if (!multiset || (exact_keys && !tested.insert(*multiset).second)) continue;
        if (!black_ok(index)) {
          last_failed = index;
          return false;
        }
      }
    }
    return true;
  }

  bool recurse(std::size_t index) {
    if (exhausted) return false;
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return false;
    if (++visited > budget || (shared != nullptr && !shared->charge())) {
      exhausted = true;
      return false;
    }
    if (index == tables.sources.size()) return true;
    const Configuration& source = tables.sources[index];
    const std::size_t lo = index == 0 ? first_lo : 0;
    const std::size_t hi = index == 0 ? first_hi : tables.images.size();
    for (std::size_t i = lo; i < hi; ++i) {
      // Apply: extend r positionally, remembering what grew.
      const std::vector<Label>& image = tables.images[i];
      const std::size_t mark = undo.size();
      for (std::size_t k = 0; k < source.size(); ++k) {
        SmallBitset& bits = r[source[k]];
        if (bits.test(image[k])) continue;
        undo.emplace_back(source[k], bits);
        bits.set(image[k]);
      }
      if (tables.unlabeled_black_ok && grown_black_ok(mark)) {
        chosen[index] = i;
        if (recurse(index + 1)) return true;
      }
      while (undo.size() > mark) {
        r[undo.back().first] = undo.back().second;
        undo.pop_back();
      }
    }
    return false;
  }

  ConfigMapping mapping() const {
    ConfigMapping out;
    for (std::size_t s = 0; s < tables.sources.size(); ++s) {
      out[tables.sources[s]] = tables.images[chosen[s]];
    }
    return out;
  }
};

/// One search: the witness it found (if any), the nodes it visited, and
/// whether a budget stopped it first.
template <typename Witness>
struct Attempt {
  std::optional<Witness> witness;
  std::uint64_t nodes = 0;
  bool exhausted = false;

  Verdict verdict() const {
    return witness ? Verdict::kYes : exhausted ? Verdict::kExhausted : Verdict::kNo;
  }
};

/// Runs attempt(lo, hi, node_limit, stop), which searches with the first
/// assignment restricted to candidates [lo, hi) of [0, fan). Serially that
/// is one call over all of them. In parallel (node_budget == 0 only, see the
/// header comment) it is one task per candidate; the first task to find a
/// witness raises `stop`, which the others poll at every node. The flag is
/// deliberately separate from options.budget — a caller's shared budget must
/// not be cancelled by our own success. Nodes add up over all tasks, and the
/// result is exhausted if any task was.
template <typename Run>
auto run_search(std::size_t fan, const RelaxationOptions& options, const Run& attempt) {
  using Outcome = decltype(attempt(0, 0, 0, nullptr));
  const std::size_t threads =
      (options.node_budget == 0 && options.threads != 1 && fan > 1)
          ? std::min(ThreadPool::resolve_threads(options.threads), fan)
          : 1;
  if (threads <= 1) {
    return attempt(0, fan, options.node_budget == 0 ? kUnlimitedNodes : options.node_budget,
                   nullptr);
  }
  std::atomic<bool> found{false};
  std::atomic<bool> any_exhausted{false};
  std::atomic<std::uint64_t> total_nodes{0};
  std::mutex claim;
  Outcome outcome;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(fan);
  for (std::size_t i = 0; i < fan; ++i) {
    tasks.push_back([&, i] {
      if (found.load(std::memory_order_relaxed) ||
          (options.budget != nullptr && options.budget->halted())) {
        return;
      }
      Outcome a = attempt(i, i + 1, kUnlimitedNodes, &found);
      total_nodes.fetch_add(a.nodes, std::memory_order_relaxed);
      if (a.exhausted) any_exhausted.store(true, std::memory_order_relaxed);
      if (a.witness && !found.exchange(true, std::memory_order_acq_rel)) {
        const std::lock_guard<std::mutex> lock(claim);
        outcome.witness = std::move(a.witness);
      }
    });
  }
  ThreadPool pool(threads - 1);
  pool.run_batch(std::move(tasks));
  outcome.nodes = total_nodes.load();
  outcome.exhausted = any_exhausted.load();
  return outcome;
}

}  // namespace

LabelMapResult find_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                         const RelaxationOptions& options) {
  LabelMapResult result;
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return result;  // kNo: degrees differ, no map can exist
  }
  const std::size_t n = pi.alphabet_size();
  const std::size_t targets = pi_prime.alphabet_size();
  if (n == 0) {
    std::vector<Label> empty;
    if (label_map_valid(pi, pi_prime, empty)) {
      result.verdict = Verdict::kYes;
      result.map = std::move(empty);
    }
    return result;
  }
  // The search walks the automata of both constraints of Π', built here,
  // before any fan-out. Past their size cap it stops at its resource cap.
  const auto white_prime = pi_prime.white().automaton();
  const auto black_prime = pi_prime.black().automaton();
  if (!white_prime || !black_prime) {
    result.verdict = Verdict::kExhausted;
    return result;
  }
  const MaxLabelBuckets buckets(pi, *white_prime, *black_prime);
  auto outcome = run_search(targets, options, [&](std::size_t lo, std::size_t hi,
                                                  std::uint64_t node_limit,
                                                  const std::atomic<bool>* stop) {
    LabelMapSearch search{buckets, n, targets, lo, hi, node_limit, options.budget, stop};
    std::vector<Label> map(n, 0);
    Attempt<std::vector<Label>> a;
    if (search.recurse(0, map)) a.witness = std::move(map);
    a.nodes = search.visited;
    a.exhausted = search.exhausted;
    return a;
  });
  result.verdict = outcome.verdict();
  result.map = std::move(outcome.witness);
  result.nodes = outcome.nodes;
  return result;
}

WitnessResult find_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                                      const RelaxationOptions& options) {
  WitnessResult result;
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return result;  // kNo
  }
  const auto black_prime = pi_prime.black().automaton();
  if (!black_prime) {
    result.verdict = Verdict::kExhausted;  // resource cap, as in the map search
    return result;
  }
  const WitnessTables tables(pi, pi_prime, *black_prime);
  const std::size_t fan = tables.sources.empty() ? 0 : tables.images.size();
  auto outcome = run_search(fan, options, [&](std::size_t lo, std::size_t hi,
                                              std::uint64_t node_limit,
                                              const std::atomic<bool>* stop) {
    RelaxSearch search(tables, lo, hi, node_limit, options.budget, stop, pi.alphabet_size());
    Attempt<ConfigMapping> a;
    if (search.recurse(0)) a.witness = search.mapping();
    a.nodes = search.visited;
    a.exhausted = search.exhausted;
    return a;
  });
  result.verdict = outcome.verdict();
  result.mapping = std::move(outcome.witness);
  result.nodes = outcome.nodes;
  return result;
}

bool check_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                const std::vector<Label>& map) {
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return false;
  }
  if (map.size() != pi.alphabet_size()) return false;
  for (const Label l : map) {
    if (l >= pi_prime.alphabet_size()) return false;
  }
  return label_map_valid(pi, pi_prime, map);
}

bool check_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                              const ConfigMapping& mapping) {
  if (pi.white_degree() != pi_prime.white_degree() ||
      pi.black_degree() != pi_prime.black_degree()) {
    return false;
  }
  // Every white configuration of Π must have an image, and the image must be
  // a white configuration of Π'.
  for (const auto& source : pi.white().members()) {
    const auto it = mapping.find(source);
    if (it == mapping.end()) return false;
    if (it->second.size() != source.size()) return false;
    if (!pi_prime.white().contains(Configuration(it->second))) return false;
  }
  return black_side_ok(pi, pi_prime, relation_of(pi, mapping));
}

}  // namespace slocal
