// T = 1 round white-algorithm existence in Supported LOCAL, and the black
// 0-round decider — the two sides of Lemma B.1's speedup step.
//
// A 1-round white algorithm maps the radius-1 view of a white node v —
// which, on a known support, is exactly the input flags of all edges
// incident to v's black neighbors — to output labels on v's input edges.
// Existence is decided by CNF: one output table per realizable view, white
// configurations enforced per full-degree view, black configurations
// quantified over every realizable radius-2 flag assignment around each
// black node. The clauses come from the lift CNF's primitives
// (cnf_encoding.hpp).
//
// Lemma B.1 (executable form): if Π has a 1-round white algorithm on a
// support of girth >= 6, then R(Π) has a 0-round black algorithm there.
// The test suite checks exactly this implication over instance corpora.
#pragma once

#include <cstdint>
#include <optional>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"

namespace slocal {

struct OneRoundOptions {
  /// Maximum edges in any view scope (white radius-T or black radius-(T+1));
  /// 2^scope flag assignments are enumerated per scope, so this caps the
  /// work and the variable tables. Instances beyond the cap return nullopt.
  std::size_t max_scope_edges = 16;
};

/// Decides T-round white-algorithm existence for `pi` on support `g`
/// (input graphs: white degree <= Δ', black degree <= r'). The radius-T
/// view of a white node covers the input flags of every edge incident to a
/// node within distance T; T = 0 reproduces the zero_round decider (tested
/// against it), T = 1 is Lemma B.1's premise. nullopt = instance too large
/// under `options`, or a constraint's automaton past the index cap.
std::optional<bool> t_round_white_algorithm_exists(
    const BipartiteGraph& g, const Problem& pi, std::size_t t,
    const OneRoundOptions& options = {});

/// T = 1 convenience wrapper.
std::optional<bool> one_round_white_algorithm_exists(
    const BipartiteGraph& g, const Problem& pi, const OneRoundOptions& options = {});

/// T-round *black* algorithm existence (transpose + swap, like the 0-round
/// black decider).
std::optional<bool> t_round_black_algorithm_exists(
    const BipartiteGraph& g, const Problem& pi, std::size_t t,
    const OneRoundOptions& options = {});

/// 0-round *black* algorithm existence: the black nodes label their input
/// edges from their own flags only. Implemented by transposing the support
/// and swapping the constraint roles, then reusing the white decider.
bool zero_round_black_algorithm_exists(const BipartiteGraph& g, const Problem& pi);

/// The transposed support (white and black sides exchanged; edge ids
/// preserved).
BipartiteGraph transpose(const BipartiteGraph& g);

/// Π with white and black constraints exchanged.
Problem swap_sides(const Problem& pi);

}  // namespace slocal
