#include "src/cert/emit.hpp"

#include <utility>

#include "src/formalism/canonical.hpp"
#include "src/lift/lift.hpp"
#include "src/solver/cnf_encoding.hpp"

namespace slocal::cert {

std::optional<Certificate> make_sequence_certificate(
    const std::vector<Problem>& problems, const REOptions& options,
    SequenceReport* report) {
  SequenceReport local =
      verify_lower_bound_sequence(problems, options, /*keep_witnesses=*/true);
  const bool valid = local.valid;
  Certificate cert;
  cert.kind = CertKind::kSequence;
  if (valid) {
    cert.sequence.problems = problems;
    cert.sequence.steps.reserve(local.steps.size());
    // Each chain problem is the next of one step and the previous of the
    // following one: fingerprint it once.
    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(problems.size());
    for (const Problem& p : problems) fingerprints.push_back(canonical_fingerprint(p));
    for (SequenceStepReport& step : local.steps) {
      SequenceStepCert out;
      out.prev_fingerprint = fingerprints[step.index - 1];
      out.next_fingerprint = fingerprints[step.index];
      // The caller's report keeps its copy of RE(Π_{i-1}); otherwise move it.
      out.re_problem =
          report != nullptr ? *step.re_problem : std::move(*step.re_problem);
      out.re_fingerprint = step.re_fingerprint;
      out.label_map = step.relaxation_map;
      if (!out.label_map.has_value()) out.config_mapping = step.relaxation_mapping;
      cert.sequence.steps.push_back(std::move(out));
    }
  }
  if (report != nullptr) *report = std::move(local);
  if (!valid) return std::nullopt;
  return cert;
}

std::optional<Certificate> make_lift_unsat_certificate(const Problem& pi,
                                                       std::size_t big_delta,
                                                       std::size_t big_r,
                                                       const BipartiteGraph& g,
                                                       SearchBudget* budget) {
  const LiftedProblem lift(pi, big_delta, big_r);
  const std::optional<Problem> psi = lift.materialize();
  if (!psi.has_value()) return std::nullopt;
  std::optional<LabelingCnf> cnf =
      encode_bipartite_labeling(g, *psi, budget, /*log_proof=*/true);
  if (!cnf.has_value()) return std::nullopt;
  if (cnf->solver.solve(/*conflict_budget=*/0, budget) != SatResult::kUnsat) {
    return std::nullopt;
  }

  Certificate cert;
  cert.kind = CertKind::kLiftUnsat;
  LiftUnsatCert& out = cert.lift;
  out.problem = pi;
  out.big_delta = big_delta;
  out.big_r = big_r;
  out.white_count = g.white_count();
  out.black_count = g.black_count();
  out.edges.reserve(g.edge_count());
  for (const BiEdge& e : g.edges()) out.edges.emplace_back(e.white, e.black);
  out.num_vars = cnf->solver.var_count();
  const SatProof& proof = cnf->solver.proof();
  out.proof.input_clauses = proof.input_clauses;
  out.proof.steps.reserve(proof.steps.size());
  for (const SatProof::Step& step : proof.steps) {
    out.proof.steps.push_back(DratStep{step.is_delete, step.lits});
  }
  out.cnf_hash = lift_cnf_hash(out.num_vars, out.proof.input_clauses);
  // target stays empty: the claim is a full refutation of the CNF.
  return cert;
}

}  // namespace slocal::cert
