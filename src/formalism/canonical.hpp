// Canonical labeling of problems up to label renaming.
//
// Two problems are the same object of the black-white formalism when a label
// bijection maps one's constraints exactly onto the other's (the equivalence
// the fixed-point lemmas — 5.4, 6.x — quantify over). `canonicalize` picks a
// distinguished representative of each equivalence class deterministically:
// renaming-equivalent problems canonicalize to structurally identical
// problems (same constraint sets over the same label indices) and to the
// same 64-bit fingerprint, so "already seen up to renaming?" becomes one
// hash probe instead of a pairwise bijection search.
//
// Algorithm: iterated signature refinement (a 1-dimensional Weisfeiler-Leman
// pass over the labels' occurrence patterns, the `LabelSignature` idea from
// problem.cpp driven to a fixpoint), then individualization-refinement
// backtracking over the surviving label classes, keeping the permutation
// whose constraint encoding is lexicographically least. Exact — never a
// heuristic tie-break — so the canonical form is a total invariant. The
// labeling is an on-disk format (fingerprints key certificates, the RE cache
// and discover checkpoints); tests/canonical_test.cpp pins it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/formalism/problem.hpp"

namespace slocal {

/// The canonical representative of a problem's renaming class.
struct CanonicalForm {
  /// Canonical problem: name preserved, labels renamed to "0".."n-1" in
  /// canonical order (synthetic names — the canonical form must not depend
  /// on the input's label names).
  Problem problem;
  /// The renaming that was applied: perm[original_label] = canonical_label.
  /// apply_renaming(input, perm) reproduces `problem` up to label names.
  std::vector<Label> perm;
  /// 64-bit fingerprint of the canonical constraint encoding. Equal for
  /// every member of the renaming class; collisions between distinct
  /// classes are possible (2^-64-ish), so exact users compare `problem`.
  std::uint64_t fingerprint = 0;
};

/// Computes the canonical form. Cost per refinement round, with R
/// configurations of degree d and n labels: each configuration's colour
/// tuple is sorted (O(R d log d)) and the tuples are ranked by a radix sort
/// (O(R d)); the labels' keys are filled in one pass over the occurrences
/// (at most R d) and n labels are sorted by key. A leaf of the search pays
/// one more such sort for its encoding. The backtracking only branches
/// inside label classes the refinement could not split (symmetric labels),
/// which stay tiny for every problem family in this repository.
CanonicalForm canonicalize(const Problem& p);

/// The same search without building the canonical problem.
std::uint64_t canonical_fingerprint(const Problem& p);

/// Applies a label bijection: configuration labels are remapped through
/// `perm` (perm[old] = new) and registry names travel with their labels.
/// Precondition: perm is a permutation of [0, p.alphabet_size()).
Problem apply_renaming(const Problem& p, const std::vector<Label>& perm);

/// True when the two problems have identical constraints (degrees, sizes,
/// and members) — the name- and registry-blind comparison canonical forms
/// are compared with.
bool same_constraints(const Problem& a, const Problem& b);

}  // namespace slocal
