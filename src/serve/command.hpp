// The command core: the four verbs both front-ends expose — sequence,
// sweep, discover, check-cert — from file path to classified result.
//
// Each run_* loads and validates its inputs, wires the engine options,
// calls the engine under the caller's budget, and returns the typed engine
// result with one Outcome class. The front-ends keep only what is theirs:
// slocal_tool parses argv, prints reports, and owns its side effects
// (--re-cache, --emit-cert, --checkpoint, --scratch); the service parses
// request lines, applies its caps and admission, memoizes sweeps, and
// renders response lines. Budgets stay the caller's: each front-end builds
// its own SearchBudget (limits, deadline, cancel chain) and passes it in.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/cert/format.hpp"
#include "src/discover/discover.hpp"
#include "src/lift/sweep.hpp"
#include "src/re/sequence.hpp"

namespace slocal::command {

enum class Outcome {
  kYes,        ///< chain verifies / chain found / certificate valid / sweep decided
  kNo,         ///< chain refuted / no chain exists / certificate rejected
  kInvalid,    ///< the command itself is broken (missing file, bad spec)
  kCorrupt,    ///< a persisted artifact failed validation; no verdict
  kExhausted,  ///< a budget tripped first; no verdict, retry with more
};

/// slocal_tool's exit code: yes 0, invalid 1, corrupt 2, exhausted 3, and
/// `no_exit` for a definitive no — 2 for a refuted sequence, 1 for discover
/// and check-cert (nothing found / certificate rejected).
int exit_code(Outcome outcome, int no_exit = 2);

struct Result {
  Outcome outcome = Outcome::kInvalid;
  std::string error;  ///< why, for kInvalid and kCorrupt
  /// The budget's consumption with the engine's own counters folded in; on
  /// kExhausted the reason is never kNone.
  BudgetConsumption consumed;
};

struct SequenceResult : Result {
  SequenceReport report;
  REStats stats;
  /// Set iff a certificate was requested and the sequence verified.
  std::optional<cert::Certificate> certificate;
};

/// Loads the files, appends `repeat` copies of the last problem, and
/// verifies the chain as a lower-bound sequence under the caller's RE
/// `options` (max_nodes, threads, cache). With `emit_certificate` the
/// certificate emitter drives the verification (one run, witnesses kept).
SequenceResult run_sequence(const std::vector<std::string>& paths, std::size_t repeat,
                            REOptions options, bool emit_certificate,
                            SearchBudget& budget);

/// lift_{Δ,r}(Π) needs Δ and r to dominate Π's white and black degrees.
bool check_lift_targets(const Problem& problem, std::size_t big_delta,
                        std::size_t big_r, std::string* error);

struct SweepPlan {
  Problem problem;
  std::size_t big_delta = 0;
  std::size_t big_r = 0;
  SweepFamilySpec family;
};

/// Loads and validates a sweep; `max_supports` caps the family (0 = none).
std::optional<SweepPlan> plan_sweep(const std::string& path, std::size_t big_delta,
                                    std::size_t big_r, const std::string& family_spec,
                                    std::size_t max_supports, std::string* error);

/// "<canonical fingerprint>/<Δ>/<r>/": the prefix of every cross-request
/// sweep key (two paths to the same problem bytes share it).
std::string sweep_key(const SweepPlan& plan);

struct SweepResult : Result {
  std::vector<BipartiteGraph> supports;  ///< the family, in sweep order
  LiftSweepResult sweep;
};

/// Builds the supports and decides the lift on each; the caller picks
/// incremental / certify_cores. kYes = every support decided.
SweepResult run_sweep(const SweepPlan& plan, LiftSweepOptions options,
                      SearchBudget& budget);

struct DiscoverResult : Result {
  discover::DiscoverResult discovery;
};

/// Loads the family (the first file is the root) and runs the search with
/// the caller's `options`. kYes found, kNo none, kCorrupt bad checkpoint.
DiscoverResult run_discover(const std::vector<std::string>& paths,
                            discover::DiscoverOptions options, SearchBudget& budget);

struct CheckCertResult : Result {
  std::string message;  ///< the checker's message (kYes / kNo)
};

/// kYes valid, kNo invalid, kCorrupt when the file fails to load.
CheckCertResult run_check_cert(const std::string& path);

}  // namespace slocal::command
