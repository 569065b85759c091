#include "src/re/sequence.hpp"

#include <algorithm>

#include "src/formalism/relaxation.hpp"

namespace slocal {

std::string SequenceReport::to_string() const {
  std::string out = valid ? "sequence: VALID\n" : "sequence: INVALID\n";
  for (const auto& s : steps) {
    out += "  step " + std::to_string(s.index) + ": re=" +
           (s.re_computed ? "ok" : (s.re_budget_exhausted ? "EXHAUSTED" : "FAILED")) +
           " relaxation=" +
           (s.relaxation_found
                ? "ok"
                : (s.relaxation_verdict == Verdict::kExhausted ? "EXHAUSTED"
                                                               : "MISSING")) +
           " |sigma|=" + std::to_string(s.re_alphabet) +
           " |W|=" + std::to_string(s.re_white_size) +
           " |B|=" + std::to_string(s.re_black_size) + "\n";
  }
  return out;
}

SequenceReport verify_lower_bound_sequence(const std::vector<Problem>& problems,
                                           const REOptions& options,
                                           bool keep_witnesses) {
  SequenceReport report;
  report.valid = true;
  for (std::size_t i = 1; i < problems.size(); ++i) {
    SequenceStepReport step;
    step.index = i;
    // Per-step stats land in a local accumulator first so the step report
    // can attribute budget consumption honestly, then merge into the
    // caller's accumulator (totals are unchanged).
    REOptions step_options = options;
    REStats local;
    step_options.stats = &local;
    auto re = round_eliminate(problems[i - 1], step_options,
                              keep_witnesses ? &step.re_fingerprint : nullptr);
    step.re_dfs_nodes = local.dfs_nodes;
    step.re_budget_exhausted = local.budget_exhausted > 0;
    step.re_cache_hit = local.cache_hits > 0;
    if (options.stats != nullptr) *options.stats += local;
    if (re) {
      step.re_computed = true;
      step.re_alphabet = re->alphabet_size();
      step.re_white_size = re->white().size();
      step.re_black_size = re->black().size();
      // Cheap sufficient check first: a single per-label map (uncapped —
      // the bucketed search prunes failing instances quickly).
      RelaxationOptions map_options;
      map_options.node_budget = 0;
      map_options.threads = options.threads;
      map_options.budget = options.budget;
      const LabelMapResult by_map =
          find_relaxation_label_map(*re, problems[i], map_options);
      step.relaxation_nodes += by_map.nodes;
      step.relaxation_verdict = by_map.verdict;
      if (by_map.verdict == Verdict::kYes) {
        if (keep_witnesses) step.relaxation_map = by_map.map;
      } else {
        // Exact bounded search for a configuration mapping. This subsumes
        // the label-map check, so its verdict overrides kNo from above.
        RelaxationOptions witness_options;
        witness_options.threads = options.threads;
        witness_options.budget = options.budget;
        const WitnessResult by_witness =
            find_relaxation_witness(*re, problems[i], witness_options);
        step.relaxation_nodes += by_witness.nodes;
        step.relaxation_verdict = by_witness.verdict;
        if (keep_witnesses && by_witness.verdict == Verdict::kYes) {
          step.relaxation_mapping = by_witness.mapping;
        }
      }
      step.relaxation_found = step.relaxation_verdict == Verdict::kYes;
      if (keep_witnesses) step.re_problem = std::move(*re);
    }
    report.valid = report.valid && step.re_computed && step.relaxation_found;
    report.steps.push_back(std::move(step));
  }
  return report;
}

double theorem_b2_bound(std::size_t k, std::size_t girth) {
  const double from_girth = (static_cast<double>(girth) - 4.0) / 2.0;
  return std::min(2.0 * static_cast<double>(k), from_girth);
}

}  // namespace slocal
