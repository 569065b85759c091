#include "src/cert/check.hpp"

#include <vector>

#include "src/cert/drat.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/relaxation.hpp"

namespace slocal::cert {

namespace {

CertCheckResult invalid(std::string message) {
  return CertCheckResult{CertStatus::kInvalid, std::move(message)};
}

CertCheckResult check_sequence(const SequenceCert& seq) {
  if (seq.steps.size() + 1 != seq.problems.size()) {
    return invalid("sequence: step count does not match problem count");
  }
  // Each problem's fingerprint is computed here, once: the next problem of
  // step j is the previous problem of step j + 1.
  std::uint64_t prev = canonical_fingerprint(seq.problems[0]);
  for (std::size_t j = 0; j < seq.steps.size(); ++j) {
    const SequenceStepCert& step = seq.steps[j];
    const std::string name = "step " + std::to_string(j + 1);
    if (prev != step.prev_fingerprint) {
      return invalid(name + ": fingerprint of the previous problem does not match");
    }
    if (canonical_fingerprint(step.re_problem) != step.re_fingerprint) {
      return invalid(name + ": fingerprint of the recorded RE problem does not match");
    }
    prev = canonical_fingerprint(seq.problems[j + 1]);
    if (prev != step.next_fingerprint) {
      return invalid(name + ": fingerprint of the next problem does not match");
    }
    if (step.label_map.has_value() == step.config_mapping.has_value()) {
      return invalid(name + ": expected exactly one relaxation witness");
    }
    const Problem& next = seq.problems[j + 1];
    if (step.label_map.has_value()) {
      if (!check_relaxation_label_map(step.re_problem, next, *step.label_map)) {
        return invalid(name + ": label-map witness is not a valid relaxation");
      }
    } else if (!check_relaxation_witness(step.re_problem, next,
                                         *step.config_mapping)) {
      return invalid(name + ": config-mapping witness is not a valid relaxation");
    }
  }
  return CertCheckResult{CertStatus::kValid,
                         "sequence: " + std::to_string(seq.steps.size()) +
                             " steps verified"};
}

CertCheckResult check_lift(const LiftUnsatCert& lift) {
  // The support's degrees must fit the lift parameters, or the claim "Π is
  // 0-round unsolvable on G via lift_{Δ,r}" is not even well-posed.
  std::vector<std::size_t> white_degree(lift.white_count, 0);
  std::vector<std::size_t> black_degree(lift.black_count, 0);
  for (const auto& [w, b] : lift.edges) {
    if (++white_degree[w] > lift.big_delta) {
      return invalid("lift: support white degree exceeds Delta");
    }
    if (++black_degree[b] > lift.big_r) {
      return invalid("lift: support black degree exceeds r");
    }
  }
  if (lift_cnf_hash(lift.num_vars, lift.proof.input_clauses) != lift.cnf_hash) {
    return invalid("lift: cnf hash mismatch (proof does not belong to this claim)");
  }
  if (!lift.target.empty()) {
    return invalid("lift: unsolvability requires an empty target clause");
  }
  const DratResult drat = check_drat(lift.proof, lift.target, lift.num_vars);
  if (!drat.valid) return invalid("lift: " + drat.message);
  return CertCheckResult{CertStatus::kValid, "lift: " + drat.message};
}

}  // namespace

CertCheckResult check_certificate(const Certificate& cert) {
  if (cert.kind == CertKind::kSequence) return check_sequence(cert.sequence);
  return check_lift(cert.lift);
}

}  // namespace slocal::cert
