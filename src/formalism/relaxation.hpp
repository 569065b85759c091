// Relaxation checks (Section 2).
//
// Π' is a relaxation of Π when a solution of Π can be converted pointwise
// into a solution of Π'. The paper's definition maps each *ordered* white
// configuration of Π to an ordered white configuration of Π' and demands
// that the induced label relation r(·) keeps every black configuration
// valid under all choices. We provide:
//   * the cheap sufficient check via a single per-label map (the form every
//     concrete relaxation in the paper takes, e.g. Observation 4.3),
//   * a witness verifier for an explicit configuration mapping,
//   * a bounded exact search implementing the paper's definition verbatim.
//
// Both searches take a RelaxationOptions with a node budget, optional
// threads, and an optional shared SearchBudget, and return a three-valued
// verdict: kYes (witness attached), kNo (definitive — the search space was
// exhausted), or kExhausted (a budget/deadline/cancel tripped first).
//
// The searches step through the sub-multiset automata of Π''s constraints,
// which each search builds for itself (Constraint::automaton), leaving Π'
// untouched: the label-map search walks C_W(Π') / C_B(Π') through m(·). The
// witness search tests a black configuration by stepping the set of all
// choice prefixes over r(l_1) x ... x r(l_d) through C_B(Π')'s automaton,
// memoized per sorted multiset of r-images. r(·) only grows along a branch,
// so after each image only the black configurations holding a grown label
// are re-checked: once per distinct image multiset in the trial (labels
// with equal r(·) share a class), vacuously when some r(·) is still empty,
// and the one that failed last is tried first. Past the automaton's size
// cap a search returns kExhausted; so does a search whose shared budget
// halts.
//
// The checkers (check_relaxation_label_map / check_relaxation_witness) do
// not use the automata: they enumerate the definition with plain membership
// tests and stay the independent oracle the certificate checker trusts.
//
// Parallelism fans the search out over the first assignment (the image of
// label 0 for the label-map search, the image of the first white
// configuration for the witness search); the first task to find a witness
// cancels the rest. The yes/no verdict is deterministic for every thread
// count; *which* witness is returned may differ between thread counts (all
// returned witnesses are valid). A finite node budget forces the serial
// path so that node-limit exhaustion is deterministic too.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/util/budget.hpp"

namespace slocal {

struct RelaxationOptions {
  /// Cap on search nodes; 0 = unlimited. Finite values force threads = 1
  /// (see header comment) so exhaustion is deterministic.
  std::uint64_t node_budget = 5'000'000;
  /// 0 = all hardware threads, 1 = serial, n = n-way. Parallelism only
  /// kicks in when node_budget == 0.
  std::size_t threads = 1;
  /// Optional shared deadline/cancel token, charged one node per search
  /// node. May trip the search to kExhausted at any point.
  SearchBudget* budget = nullptr;
};

/// A configuration-mapping witness: for each white configuration of Π
/// (canonical form, labels in sorted order), the image labels *positionally
/// aligned* with the sorted source labels.
using ConfigMapping = std::map<Configuration, std::vector<Label>>;

struct LabelMapResult {
  Verdict verdict = Verdict::kNo;
  std::optional<std::vector<Label>> map;  // engaged iff verdict == kYes
  std::uint64_t nodes = 0;                // assignment nodes visited
};

struct WitnessResult {
  Verdict verdict = Verdict::kNo;
  std::optional<ConfigMapping> mapping;  // engaged iff verdict == kYes
  std::uint64_t nodes = 0;               // backtracking nodes visited
};

/// Searches for a per-label map m: Σ(Π) -> Σ(Π') such that every white
/// configuration of Π maps into C_W(Π') and every black configuration maps
/// into C_B(Π'). Such a map witnesses that Π' is a relaxation of Π.
/// Incremental pruning: source configurations are bucketed by their maximum
/// label, so a prefix m(0..k) is rejected as soon as any configuration
/// whose labels are all <= k maps outside Π' — the serial search still
/// returns the lexicographically smallest valid map.
LabelMapResult find_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                         const RelaxationOptions& options = {});

/// Exact bounded search for a ConfigMapping witness (the paper's definition
/// verbatim), fanned out over the first source's candidate images when
/// parallel.
WitnessResult find_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                                      const RelaxationOptions& options = {});

/// Verifies an explicit per-label map m: Σ(Π) -> Σ(Π') by direct definition
/// checking (no search): m must cover Σ(Π), stay within Σ(Π'), and remap
/// every white and black configuration of Π into the corresponding
/// constraint of Π'. The certificate checker validates label-map witnesses
/// with this instead of re-running find_relaxation_label_map.
bool check_relaxation_label_map(const Problem& pi, const Problem& pi_prime,
                                const std::vector<Label>& map);

/// Verifies the paper's relaxation definition for an explicit mapping:
/// images must be white configurations of Π', and for every black
/// configuration {l1..ld} of Π, every choice over r(l1) x ... x r(ld) must
/// lie in C_B(Π'), where r(l) collects all image labels of l across the
/// mapping.
bool check_relaxation_witness(const Problem& pi, const Problem& pi_prime,
                              const ConfigMapping& mapping);

}  // namespace slocal
