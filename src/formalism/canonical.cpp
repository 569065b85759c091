#include "src/formalism/canonical.hpp"

#include <algorithm>
#include <cassert>
#include <compare>
#include <numeric>
#include <string>
#include <utility>

namespace slocal {

namespace {

/// Constraint encodings are integer words; 0xFFFFFFFF is reserved as the
/// side separator (label indices stay far below it).
using Words = std::vector<std::uint32_t>;
constexpr std::uint32_t kSideSep = 0xFFFFFFFFu;

std::uint64_t fnv1a64(const Words& words) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint32_t w : words) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (w >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

int distinct_count(const std::vector<int>& color) {
  return color.empty() ? 0 : *std::max_element(color.begin(), color.end()) + 1;
}

/// One side's configurations, flattened to `rows` runs of `degree` sorted
/// labels. Each run of one label in a row is a (label, multiplicity) slot,
/// l * degree + multiplicity - 1; label l's keys are
/// key[slot_start[l * degree] .. slot_start[(l + 1) * degree]).
struct Side {
  std::size_t degree, rows;
  std::vector<Label> labels;
  std::vector<std::uint32_t> run_start{0}, run_slot, slot_start;
  // Scratch: each row's colours, sorted; the rows in tuple order; per
  // occurrence, multiplicity << 32 | rank of its row's tuple.
  std::vector<std::uint16_t> tuple;
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> key;

  Side(const Constraint& c, std::size_t n)
      : degree(c.degree()), rows(c.size()), order(rows) {
    for (const Configuration& cfg : c.members()) {
      labels.insert(labels.end(), cfg.labels().begin(), cfg.labels().end());
    }
    slot_start.assign(n * degree + 1, 0);
    for (std::size_t i = 0; i < labels.size();) {
      std::size_t j = i + 1;
      while (j % degree != 0 && labels[j] == labels[i]) ++j;
      run_slot.push_back(static_cast<std::uint32_t>(labels[i] * degree + (j - i - 1)));
      ++slot_start[run_slot.back() + 1];
      if (j % degree == 0) run_start.push_back(static_cast<std::uint32_t>(run_slot.size()));
      i = j;
    }
    run_start.resize(rows + 1, static_cast<std::uint32_t>(run_slot.size()));
    std::partial_sum(slot_start.begin(), slot_start.end(), slot_start.begin());
    tuple.resize(labels.size());
    key.resize(run_slot.size());
  }

  const std::uint16_t* row(std::uint32_t r) const { return tuple.data() + r * degree; }

  /// Writes each row's colours, sorted, and sorts `order` by those tuples:
  /// an LSD radix sort, one stable counting pass per position, last first.
  /// Colours stay below 512 (2 * 255 + 1 after an individualization).
  void sort_rows(const std::vector<int>& color) {
    std::transform(labels.begin(), labels.end(), tuple.begin(),
                   [&](Label l) { return static_cast<std::uint16_t>(color[l]); });
    for (std::size_t r = 0; r < rows; ++r) {
      std::sort(tuple.begin() + r * degree, tuple.begin() + (r + 1) * degree);
    }
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint32_t> spare(rows);
    for (std::size_t k = degree; k-- > 0;) {
      std::uint32_t count[513] = {};
      for (std::size_t r = 0; r < rows; ++r) ++count[tuple[r * degree + k] + 1];
      if (rows == 0 || count[tuple[k] + 1] == rows) continue;  // one value: no change
      std::partial_sum(count, count + 513, count);
      for (const std::uint32_t r : order) spare[count[tuple[r * degree + k]]++] = r;
      order.swap(spare);
    }
  }

  /// Ranks the rows' tuples (equal tuples, equal ranks, in tuple order) and
  /// writes every label's keys sorted: visiting the rows in rank order fills
  /// each slot in ascending rank, and a label's slots ascend by multiplicity.
  void rank_rows(const std::vector<int>& color) {
    sort_rows(color);
    std::vector<std::uint32_t> cursor(slot_start.begin(), slot_start.end() - 1);
    std::uint64_t rank = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::uint32_t r = order[i];
      if (i > 0 && !std::equal(row(r), row(r) + degree, row(order[i - 1]))) ++rank;
      for (std::uint32_t k = run_start[r]; k < run_start[r + 1]; ++k) {
        const std::uint32_t slot = run_slot[k];
        key[cursor[slot]++] = (std::uint64_t{slot % degree + 1} << 32) | rank;
      }
    }
  }

  /// Compares the keys of labels a and b; of two lists where one is a
  /// proper prefix of the other, the longer sorts first if `longer_first`.
  std::strong_ordering compare(std::size_t a, std::size_t b, bool longer_first) const {
    const auto first = [&](std::size_t l) { return key.begin() + slot_start[l * degree]; };
    const auto [i, j] = std::mismatch(first(a), first(a + 1), first(b), first(b + 1));
    if (i != first(a + 1) && j != first(b + 1)) return *i <=> *j;
    const std::ptrdiff_t size_a = first(a + 1) - first(a), size_b = first(b + 1) - first(b);
    return longer_first ? size_b <=> size_a : size_a <=> size_b;
  }

  /// The configurations under the permutation `perm`, each sorted, in order.
  void encode(const std::vector<int>& perm, Words& out) {
    sort_rows(perm);
    for (const std::uint32_t r : order) out.insert(out.end(), row(r), row(r) + degree);
  }
};

/// The exact canonical-labeling search: Weisfeiler-Leman-style refinement of
/// label classes to a fixpoint, then individualization-refinement
/// backtracking over the first class the refinement could not split. Every
/// branch of a split class is explored, so the minimum encoding over all
/// leaves is invariant under any renaming of the input.
class Canonicalizer {
 public:
  /// Runs the search; only form() builds the canonical problem.
  explicit Canonicalizer(const Problem& p)
      : p_(p), n_(p.alphabet_size()), white_(p.white(), n_), black_(p.black(), n_) {
    search(std::vector<int>(n_, 0));
    assert(have_best_);
  }

  /// The least encoding; equal exactly when the inputs are renamings.
  const Words& encoding() const { return best_enc_; }
  std::vector<Label> perm() const { return {best_perm_.begin(), best_perm_.end()}; }

  CanonicalForm form() const {
    CanonicalForm out{apply_renaming(p_, perm()), perm(), fnv1a64(best_enc_)};
    LabelRegistry reg;
    for (std::size_t c = 0; c < n_; ++c) reg.intern(std::to_string(c));
    out.problem = Problem(p_.name(), std::move(reg), std::move(out.problem.white()),
                          std::move(out.problem.black()));
    return out;
  }

 private:

  /// Drives the color partition to a refinement fixpoint. A label's key is
  /// its colour, then per side the sorted (own multiplicity, rank of the
  /// sorted colour tuple) pairs of the configurations holding it: invariant
  /// under renaming, since labels enter only through their colours. Keys
  /// compare lexicographically, and a proper prefix sorts after on the white
  /// side but first on the black side (the order the fingerprints on disk
  /// were computed with). Colors are renumbered by sorted key rank each
  /// round, which keeps the class order and leaves them rank-normalized.
  std::vector<int> refine(std::vector<int> color) {
    std::vector<std::size_t> order(n_);
    while (true) {
      white_.rank_rows(color);
      black_.rank_rows(color);
      const auto less = [&](std::size_t a, std::size_t b) {
        if (color[a] != color[b]) return color[a] < color[b];
        const std::strong_ordering w = white_.compare(a, b, /*longer_first=*/true);
        return w != 0 ? w < 0 : black_.compare(a, b, /*longer_first=*/false) < 0;
      };
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), less);
      std::vector<int> next(n_);
      for (std::size_t i = 1; i < n_; ++i) {
        next[order[i]] = next[order[i - 1]] + (less(order[i - 1], order[i]) ? 1 : 0);
      }
      // A discrete partition is its own fixpoint.
      const int classes = distinct_count(next);
      const bool stable = classes == static_cast<int>(n_) || classes == distinct_count(color);
      color = std::move(next);
      if (stable) return color;
    }
  }

  void search(std::vector<int> color) {
    color = refine(color);

    // First class (in canonical color order) the refinement left ambiguous.
    std::vector<int> class_size(static_cast<std::size_t>(distinct_count(color)), 0);
    for (const int c : color) ++class_size[static_cast<std::size_t>(c)];
    const auto ambiguous =
        std::find_if(class_size.begin(), class_size.end(), [](int size) { return size > 1; });
    if (ambiguous == class_size.end()) {
      // Discrete partition: the colors are a permutation.
      encode(color, enc_);
      if (!have_best_ || enc_ < best_enc_) {
        std::swap(best_enc_, enc_);
        best_perm_ = std::move(color);
        have_best_ = true;
      }
      return;
    }

    // Individualize each member of the ambiguous class in turn: the chosen
    // label sorts before its former classmates, then refinement propagates
    // the distinction. Branching over every member keeps the minimum
    // encoding renaming-invariant.
    const int target = static_cast<int>(ambiguous - class_size.begin());
    for (std::size_t u = 0; u < n_; ++u) {
      if (color[u] != target) continue;
      std::vector<int> next(n_);
      for (std::size_t l = 0; l < n_; ++l) {
        next[l] = 2 * color[l] + ((color[l] == target && l != u) ? 1 : 0);
      }
      search(std::move(next));
    }
  }

  /// Full constraint encoding under a complete permutation: header, then
  /// each side's remapped configurations in sorted order. Lexicographic
  /// comparison of encodings defines the canonical representative.
  void encode(const std::vector<int>& perm, Words& out) {
    out.assign({static_cast<std::uint32_t>(n_), static_cast<std::uint32_t>(white_.degree),
                static_cast<std::uint32_t>(black_.degree),
                static_cast<std::uint32_t>(white_.rows),
                static_cast<std::uint32_t>(black_.rows), kSideSep});
    white_.encode(perm, out);
    out.push_back(kSideSep);
    black_.encode(perm, out);
  }

  const Problem& p_;
  std::size_t n_;
  Side white_;
  Side black_;
  Words enc_;
  Words best_enc_;
  std::vector<int> best_perm_;
  bool have_best_ = false;
};

}  // namespace

CanonicalForm canonicalize(const Problem& p) { return Canonicalizer(p).form(); }

std::uint64_t canonical_fingerprint(const Problem& p) {
  return fnv1a64(Canonicalizer(p).encoding());
}

Problem apply_renaming(const Problem& p, const std::vector<Label>& perm) {
  assert(perm.size() == p.alphabet_size());
  std::vector<Label> inverse(perm.size(), 0);
  for (std::size_t l = 0; l < perm.size(); ++l) inverse[perm[l]] = static_cast<Label>(l);
  LabelRegistry reg;
  for (std::size_t c = 0; c < perm.size(); ++c) {
    reg.intern(p.registry().name(inverse[c]));
  }
  const auto remap_all = [&](const Constraint& c) {
    Constraint out(c.degree());
    for (const Configuration& cfg : c.members()) {
      std::vector<Label> labels;
      labels.reserve(cfg.size());
      for (const Label l : cfg.labels()) labels.push_back(perm[l]);
      out.add(Configuration(std::move(labels)));
    }
    return out;
  };
  return Problem(p.name(), std::move(reg), remap_all(p.white()), remap_all(p.black()));
}

bool same_constraints(const Problem& a, const Problem& b) {
  return a.alphabet_size() == b.alphabet_size() && a.white() == b.white() &&
         a.black() == b.black();
}

std::optional<std::vector<Label>> equivalent_up_to_renaming(const Problem& a,
                                                            const Problem& b) {
  if (a.alphabet_size() != b.alphabet_size() || a.white().size() != b.white().size() ||
      a.black().size() != b.black().size() || a.white_degree() != b.white_degree() ||
      a.black_degree() != b.black_degree()) {
    return std::nullopt;
  }
  const Canonicalizer ca(a), cb(b);
  if (ca.encoding() != cb.encoding()) return std::nullopt;
  // Both sides land on the same canonical labeling, so the witness is the
  // composition a -> canonical -> b.
  const std::vector<Label> perm_a = ca.perm(), perm_b = cb.perm();
  std::vector<Label> inv_b(perm_b.size(), 0);
  for (std::size_t l = 0; l < perm_b.size(); ++l) inv_b[perm_b[l]] = static_cast<Label>(l);
  std::vector<Label> map(perm_a.size(), 0);
  for (std::size_t l = 0; l < perm_a.size(); ++l) map[l] = inv_b[perm_a[l]];
  return map;
}

}  // namespace slocal
