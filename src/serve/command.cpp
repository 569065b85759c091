#include "src/serve/command.hpp"

#include <algorithm>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/formalism/serialize.hpp"

namespace slocal::command {

namespace {

/// Loads every file in order; the first failure is the whole answer.
std::optional<std::vector<Problem>> load_problems(const std::vector<std::string>& paths,
                                                  std::string* error) {
  std::vector<Problem> problems;
  problems.reserve(paths.size());
  for (const std::string& path : paths) {
    auto problem = load_problem_file(path, error);
    if (!problem) return std::nullopt;
    problems.push_back(std::move(*problem));
  }
  return problems;
}

/// Classifies a run that may have tripped its budget: exhausted runs get
/// `reason` unless the budget already names one.
void classify(Result* result, bool exhausted, Outcome decided, ExhaustReason reason) {
  result->outcome = exhausted ? Outcome::kExhausted : decided;
  if (exhausted && result->consumed.reason == ExhaustReason::kNone) {
    result->consumed.reason = reason;
  }
}

}  // namespace

int exit_code(Outcome outcome, int no_exit) {
  // Indexed by Outcome: yes, no, invalid, corrupt, exhausted.
  const int codes[] = {0, no_exit, 1, 2, 3};
  return codes[static_cast<int>(outcome)];
}

SequenceResult run_sequence(const std::vector<std::string>& paths, std::size_t repeat,
                            REOptions options, bool emit_certificate,
                            SearchBudget& budget) {
  SequenceResult result;
  auto problems = load_problems(paths, &result.error);
  if (!problems) return result;
  if (!problems->empty()) {
    const Problem last = problems->back();  // resize may reallocate
    problems->resize(problems->size() + repeat, last);
  }

  options.budget = &budget;
  options.stats = &result.stats;
  if (emit_certificate) {
    result.certificate =
        cert::make_sequence_certificate(*problems, options, &result.report);
  } else {
    result.report = verify_lower_bound_sequence(*problems, options);
  }

  result.consumed = budget.consumption();
  std::uint64_t search_nodes = result.stats.dfs_nodes;
  bool exhausted = budget.halted();
  for (const SequenceStepReport& step : result.report.steps) {
    search_nodes += step.relaxation_nodes;
    exhausted = exhausted || step.re_budget_exhausted ||
                step.relaxation_verdict == Verdict::kExhausted;
  }
  result.consumed.nodes = std::max(result.consumed.nodes, search_nodes);
  classify(&result, exhausted, result.report.valid ? Outcome::kYes : Outcome::kNo,
           ExhaustReason::kNodes);
  return result;
}

bool check_lift_targets(const Problem& problem, std::size_t big_delta,
                        std::size_t big_r, std::string* error) {
  if (big_delta >= problem.white_degree() && big_r >= problem.black_degree()) {
    return true;
  }
  *error = "lift targets must dominate the problem degrees";
  return false;
}

std::optional<SweepPlan> plan_sweep(const std::string& path, std::size_t big_delta,
                                    std::size_t big_r, const std::string& family_spec,
                                    std::size_t max_supports, std::string* error) {
  auto problem = load_problem_file(path, error);
  if (!problem || !check_lift_targets(*problem, big_delta, big_r, error)) {
    return std::nullopt;
  }
  const auto family = parse_sweep_family_spec(family_spec, big_delta, big_r, error);
  if (!family) return std::nullopt;
  if (max_supports > 0 && family->hi - family->lo >= max_supports) {
    *error = "family too large (more than " + std::to_string(max_supports) +
             " supports)";
    return std::nullopt;
  }
  return SweepPlan{std::move(*problem), big_delta, big_r, *family};
}

std::string sweep_key(const SweepPlan& plan) {
  return hex16(canonical_fingerprint(plan.problem)) + "/" +
         std::to_string(plan.big_delta) + "/" + std::to_string(plan.big_r) + "/";
}

SweepResult run_sweep(const SweepPlan& plan, LiftSweepOptions options,
                      SearchBudget& budget) {
  SweepResult result;
  result.supports =
      plan.family.cycles
          ? make_cycle_supports(plan.family.lo, plan.family.hi)
          : make_gadget_supports(plan.big_delta, plan.big_r, plan.family.lo,
                                 plan.family.hi);
  options.budget = &budget;
  result.sweep = run_lift_sweep(plan.problem, plan.big_delta, plan.big_r,
                                result.supports, options);
  if (!result.sweep.lift_materialized) {
    result.error = "lift too large to materialize";
    return result;
  }
  result.consumed = budget.consumption();
  result.consumed.conflicts =
      std::max(result.consumed.conflicts, result.sweep.total_conflicts);
  bool exhausted = budget.halted();
  for (const LiftSweepStep& step : result.sweep.steps) {
    exhausted = exhausted || step.verdict == Verdict::kExhausted;
  }
  classify(&result, exhausted, Outcome::kYes, ExhaustReason::kConflicts);
  return result;
}

DiscoverResult run_discover(const std::vector<std::string>& paths,
                            discover::DiscoverOptions options, SearchBudget& budget) {
  DiscoverResult result;
  const auto family = load_problems(paths, &result.error);
  if (!family) return result;
  options.budget = &budget;
  result.discovery = discover::run_discovery(*family, options);
  result.consumed = budget.consumption();
  result.consumed.nodes =
      std::max(result.consumed.nodes, result.discovery.stats.nodes_spent);
  using Status = discover::DiscoverStatus;
  const Status status = result.discovery.status;
  if (status == Status::kCorrupt) {
    result.outcome = Outcome::kCorrupt;
    result.error = "discover checkpoint failed validation";
    return result;
  }
  classify(&result, status == Status::kExhausted,
           status == Status::kFound ? Outcome::kYes : Outcome::kNo, ExhaustReason::kNodes);
  return result;
}

CheckCertResult run_check_cert(const std::string& path) {
  CheckCertResult result;
  cert::Certificate certificate;
  if (!cert::load_certificate(path, &certificate, &result.error)) {
    result.outcome = Outcome::kCorrupt;
    return result;
  }
  const cert::CertCheckResult check = cert::check_certificate(certificate);
  result.outcome = check.status == cert::CertStatus::kValid ? Outcome::kYes : Outcome::kNo;
  result.message = check.message;
  return result;
}

}  // namespace slocal::command
