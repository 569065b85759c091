// A racing portfolio for the edge-labeling existence question.
//
// Both deciders in the tree are exact on the same question — backtracking
// (src/solver/edge_labeling.hpp) and CDCL over the bad-prefix encoding
// (src/solver/cnf_encoding.hpp) — but their runtimes diverge wildly per
// instance. The portfolio encodes the CNF once, then races the backtracker
// against several CDCL copies under different branching seeds on the thread
// pool; the first definitive answer wins and cancels the rest through a
// shared SearchBudget. Because every engine is exact, whichever finishes
// first is correct, so the yes/no verdict is deterministic even though the
// winner is not.
//
// All losers are cancelled cooperatively and the pool barrier in
// `run_batch` guarantees no task outlives the call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/formalism/problem.hpp"
#include "src/graph/bipartite.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/util/budget.hpp"

namespace slocal {

struct PortfolioOptions {
  /// 0 = all hardware threads. The portfolio never runs more threads than
  /// it has engines (1 backtracker + sat_seeds CDCL copies).
  std::size_t threads = 0;
  /// Number of CDCL copies; seed 0 is the unperturbed solver, higher seeds
  /// jitter activities and branch polarity.
  std::size_t sat_seeds = 3;
  /// Local node cap for the backtracking engine (always enforced).
  std::uint64_t node_budget = 50'000'000;
  /// Local conflict cap per CDCL copy; 0 = run to completion.
  std::uint64_t conflict_budget = 0;
  /// Overall wall-clock limit for the race; 0 = none.
  std::uint64_t timeout_ms = 0;
  /// Optional external budget: cancelling it (or its deadline) stops the
  /// whole race.
  SearchBudget* budget = nullptr;
  /// Pre-encoded instance (e.g. IncrementalLabelingSweep::snapshot): skips
  /// the in-call encoding and races copies of *encoded, each solving under
  /// `assumptions` (the guard literals activating g's constraints). Must
  /// outlive the call, agree with (g, pi), and have edge_label_vars indexed
  /// by g's edge ids. The backtracking engine is unaffected — it answers
  /// the same question directly on (g, pi).
  const LabelingCnf* encoded = nullptr;
  std::vector<Lit> assumptions;
  /// Branching-polarity preload for every CDCL copy (see
  /// SatSolver::set_phases). Feed a previous race's winner_phase back in to
  /// restart losing engines with the winner's saved phases — on a sweep of
  /// related instances the next race then starts from a polarity vector that
  /// already satisfied a sibling instance. Empty = no preload.
  std::vector<std::uint8_t> initial_phase;
};

struct PortfolioResult {
  /// kYes (labels attached) / kNo are definitive; kExhausted means no
  /// engine finished inside its budget.
  Verdict verdict = Verdict::kExhausted;
  std::optional<std::vector<Label>> labels;
  /// Which engine answered first: "backtracking" or "sat[<seed>]"; empty
  /// when exhausted.
  std::string winner;
  /// Why the race stopped without an answer (kNone when decided).
  ExhaustReason reason = ExhaustReason::kNone;
  std::uint64_t nodes = 0;      // backtracking nodes charged to the race
  std::uint64_t conflicts = 0;  // CDCL conflicts summed across all copies
  double wall_ms = 0.0;
  /// The winning CDCL engine's saved-phase vector (empty when the
  /// backtracker won or the race exhausted). Pass as initial_phase of the
  /// next related race; after a kYes it encodes the winner's model.
  std::vector<std::uint8_t> winner_phase;
};

/// Decides whether `pi` admits a bipartite solution on `g` by racing the
/// backtracker against `sat_seeds` CDCL copies. Blocks until the race is
/// over; never leaks tasks.
PortfolioResult solve_labeling_portfolio(const BipartiteGraph& g, const Problem& pi,
                                         const PortfolioOptions& options = {});

}  // namespace slocal
