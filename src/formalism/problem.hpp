// A problem in the black-white formalism: Π = (Σ, C_W, C_B) (Section 2).
//
// The registry travels with the problem: labels are problem-scoped indices.
// Equality up to renaming (needed for fixed-point checks like Lemma 5.4)
// lives here as `equivalent_up_to_renaming`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/formalism/constraint.hpp"
#include "src/formalism/label.hpp"

namespace slocal {

class Problem {
 public:
  Problem() = default;
  Problem(std::string name, LabelRegistry registry, Constraint white, Constraint black);

  const std::string& name() const { return name_; }
  const LabelRegistry& registry() const { return registry_; }
  LabelRegistry& registry() { return registry_; }

  const Constraint& white() const { return white_; }
  const Constraint& black() const { return black_; }
  Constraint& white() { return white_; }
  Constraint& black() { return black_; }

  /// d_W and d_B: sizes of white / black configurations.
  std::size_t white_degree() const { return white_.degree(); }
  std::size_t black_degree() const { return black_.degree(); }

  std::size_t alphabet_size() const { return registry_.size(); }

  /// Multi-line rendering: name, then white constraint, "---", black.
  std::string to_string() const;

  /// Structural equality (same registry order, same configs).
  bool operator==(const Problem&) const = default;

 private:
  std::string name_;
  LabelRegistry registry_;
  Constraint white_;
  Constraint black_;
};

/// Does a label bijection exist mapping Π1's constraints exactly onto Π2's?
/// Returns one witness bijection (indexed by Π1 labels) if so. Implemented
/// by comparing canonical forms (src/formalism/canonical.cpp): both sides
/// canonicalize once and the witness is the composition through the shared
/// canonical labeling.
std::optional<std::vector<Label>> equivalent_up_to_renaming(const Problem& a,
                                                            const Problem& b);

/// The pre-canonicalization implementation: backtracking bijection search
/// with occurrence-signature pruning. Kept as an independent test oracle for
/// `equivalent_up_to_renaming`; intended for small alphabets only.
std::optional<std::vector<Label>> equivalent_up_to_renaming_bruteforce(
    const Problem& a, const Problem& b);

/// Removes labels that appear in neither constraint and reindexes the
/// survivors in canonical order (names preserved for surviving labels), so
/// renaming-equivalent inputs yield structurally identical constraint sets.
/// (The old used-label-order reindexing made two renaming-equivalent
/// problems disagree after dropping.) When `fingerprint` is set it receives
/// the result's canonical fingerprint, which the reindex computes anyway.
Problem drop_unused_labels(const Problem& p, std::uint64_t* fingerprint = nullptr);

}  // namespace slocal
