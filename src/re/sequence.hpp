// Lower bound sequences (Section 2).
//
// Π_0, ..., Π_k is a lower bound sequence when each Π_i is a relaxation of
// RE(Π_{i-1}). Combined with 0-round unsolvability of Π_k in Supported
// LOCAL (decided through lift, Theorem 3.2), Theorem B.2 turns the sequence
// into a min{2k, (g-4)/2}-round lower bound. This module verifies sequences
// mechanically: it computes RE(Π_{i-1}) with the engine and then searches
// for a relaxation witness to Π_i.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/re/round_elimination.hpp"

namespace slocal {

struct SequenceStepReport {
  std::size_t index = 0;          // i: checks Π_i against RE(Π_{i-1})
  bool re_computed = false;       // RE stayed within resource limits
  bool relaxation_found = false;  // Π_i is a relaxation of RE(Π_{i-1})
  /// True when RE aborted because a budget tripped (as opposed to the
  /// max_configurations / max_alphabet caps); re_computed is false then.
  bool re_budget_exhausted = false;
  /// Outcome of the relaxation search: kYes iff relaxation_found, kNo when
  /// the search space was exhausted without a witness, kExhausted when a
  /// budget tripped first (the step is unverified, not refuted).
  Verdict relaxation_verdict = Verdict::kNo;
  std::size_t re_alphabet = 0;
  std::size_t re_white_size = 0;
  std::size_t re_black_size = 0;
  std::uint64_t re_dfs_nodes = 0;       // hardened-DFS nodes spent on this step
  std::uint64_t relaxation_nodes = 0;   // relaxation-search nodes on this step
  /// True when REOptions::cache answered this step's RE application (then
  /// re_dfs_nodes is 0 — no search ran). Not printed by to_string, so cache
  /// on/off runs produce byte-identical reports.
  bool re_cache_hit = false;
  /// Witness material, captured only when verify_lower_bound_sequence is
  /// called with keep_witnesses = true (certificate emission): RE(Π_{i-1})
  /// as computed with its canonical fingerprint (round_eliminate's), and
  /// whichever relaxation witness the search found. None of this is
  /// printed by to_string, so reports stay byte-identical across the flag.
  std::optional<Problem> re_problem;
  std::uint64_t re_fingerprint = 0;
  std::optional<std::vector<Label>> relaxation_map;
  std::optional<ConfigMapping> relaxation_mapping;
};

struct SequenceReport {
  bool valid = false;  // every step verified
  std::vector<SequenceStepReport> steps;
  std::string to_string() const;
};

/// Verifies that `problems` is a lower bound sequence. Each step computes
/// RE(Π_{i-1}) and checks that Π_i is a relaxation of it (label-map check
/// first, bounded exact search as fallback). The relaxation searches inherit
/// options.threads and options.budget; a tripped budget marks the step
/// exhausted (report invalid) but never flips a verified/refuted verdict.
/// keep_witnesses additionally stores each step's RE problem and relaxation
/// witness in the report (for certificate emission); verdicts, counters,
/// and to_string output are identical either way.
SequenceReport verify_lower_bound_sequence(const std::vector<Problem>& problems,
                                           const REOptions& options = {},
                                           bool keep_witnesses = false);

/// Theorem B.2's bound from a sequence length and support girth:
/// min{2k, (g-4)/2} rounds (white algorithms, bipartite case).
double theorem_b2_bound(std::size_t k, std::size_t girth);

}  // namespace slocal
