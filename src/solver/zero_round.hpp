// Deterministic 0-round white-algorithm existence in the Supported LOCAL
// model — the left-hand side of Theorem 3.2, decided directly.
//
// On support graph G (2-colored), a 0-round white algorithm is a function
// that, for every white node v and every possible set T of input edges at v
// (|T| <= Δ'), fixes output labels on the edges of T — it may depend on all
// of G (known to every node) but on nothing else. It solves Π on the class
// G' of input subgraphs with white degree <= Δ' and black degree <= r' if:
//   * whenever |T| = Δ', the outputs at (v, T) form a white configuration;
//   * for every realizable input graph in which a black node b has degree
//     exactly r', the labels output on b's edges (each determined by its
//     white endpoint's local input) form a black configuration.
//
// The decider encodes this as CNF over variables "output of (v,T) on e is
// l" and quantifies the black condition over all realizable neighborhood
// combinations, with the clause primitives of the lift CNF
// (cnf_encoding.hpp). Theorem 3.2 asserts this decision is equivalent to
// solvability of lift_{Δ,r}(Π) on G — a property the test suite checks by
// running both deciders on a corpus of instances.
#pragma once

#include <cstdint>
#include <optional>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/util/budget.hpp"

namespace slocal {

struct ZeroRoundStats {
  std::size_t variables = 0;
  std::size_t clauses = 0;
  std::size_t black_scenarios = 0;  // realizable (b, E_b, T_1..T_r') families
  /// kYes/kNo when decided; kExhausted when a budget tripped (scenario
  /// enumeration or the SAT solve stopped early) or a constraint's
  /// automaton is past the index cap (nothing is encoded). Within the cap
  /// and without a budget the decision is always exact.
  Verdict verdict = Verdict::kNo;
};

/// Decides whether a deterministic 0-round white algorithm bipartitely
/// solving `pi` exists on support `g` for input graphs with white degree
/// <= pi.white_degree() and black degree <= pi.black_degree().
/// Exact when `budget` is null; a tripped budget or the index cap returns
/// false with stats->verdict == kExhausted (never a wrong "does not exist").
bool zero_round_white_algorithm_exists(const BipartiteGraph& g, const Problem& pi,
                                       ZeroRoundStats* stats = nullptr,
                                       SearchBudget* budget = nullptr);

}  // namespace slocal
