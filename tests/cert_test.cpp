// Certificate subsystem tests: the from-scratch RUP/DRAT checker, end-to-end
// emission + validation for sequence and lift-unsat claims, and mutation
// tests — every weakened certificate must be rejected with a message naming
// the failing ingredient, and the standalone cert_check binary must honor
// the 0/1/2 exit-code contract on the same files.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cert/check.hpp"
#include "src/cert/drat.hpp"
#include "src/cert/emit.hpp"
#include "src/cert/format.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/sequence.hpp"
#include "tests/temp_file.hpp"

namespace slocal {
namespace {

using testing_support::temp_file;

using cert::Certificate;
using cert::CertStatus;
using cert::check_certificate;
using cert::DratProof;
using cert::DratStep;

// ---------------------------------------------------------------------------
// RUP/DRAT checker in isolation.
// ---------------------------------------------------------------------------

/// inputs = the four binary clauses over {1,2} whose conjunction is UNSAT.
DratProof unsat_square() {
  DratProof proof;
  proof.input_clauses = {{1, 2}, {-1, 2}, {1, -2}, {-1, -2}};
  return proof;
}

TEST(Drat, AcceptsTextbookRefutation) {
  DratProof proof = unsat_square();
  proof.steps.push_back(DratStep{false, {2}});  // RUP: -2 propagates 1 and -1
  const auto result = cert::check_drat(proof, /*target=*/{}, /*num_vars=*/2);
  EXPECT_TRUE(result.valid) << result.message;
}

TEST(Drat, AcceptsRefutationWithDeletions) {
  DratProof proof = unsat_square();
  proof.steps.push_back(DratStep{false, {2}});
  // {1,2} and {-1,2} are subsumed by the learned unit; deleting them must
  // not break the final conflict.
  proof.steps.push_back(DratStep{true, {1, 2}});
  proof.steps.push_back(DratStep{true, {2, -1}});  // set-matched, order-free
  const auto result = cert::check_drat(proof, {}, 2);
  EXPECT_TRUE(result.valid) << result.message;
}

TEST(Drat, RejectsNonRupAddition) {
  DratProof proof;
  proof.input_clauses = {{1, 2}};
  proof.steps.push_back(DratStep{false, {1}});  // not a consequence
  const auto result = cert::check_drat(proof, {1, 2}, 2);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.message.find("step 1"), std::string::npos) << result.message;
  EXPECT_NE(result.message.find("reverse-unit-propagation"), std::string::npos)
      << result.message;
}

TEST(Drat, RejectsUnderivedTarget) {
  DratProof proof;
  proof.input_clauses = {{1, 2}};
  const auto result = cert::check_drat(proof, /*target=*/{}, 2);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.message.find("target"), std::string::npos) << result.message;
}

TEST(Drat, RejectsDeletionOfAbsentClause) {
  DratProof proof = unsat_square();
  proof.steps.push_back(DratStep{true, {1, 2, -2}});  // never added
  const auto result = cert::check_drat(proof, {}, 2);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.message.find("deletion step 1"), std::string::npos)
      << result.message;
}

TEST(Drat, DeletionCanBreakALaterStep) {
  DratProof proof = unsat_square();
  proof.steps.push_back(DratStep{true, {1, 2}});   // remove a needed clause
  proof.steps.push_back(DratStep{false, {2}});     // no longer RUP
  const auto result = cert::check_drat(proof, {}, 2);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.message.find("step 2"), std::string::npos) << result.message;
}

TEST(Drat, RejectsOutOfRangeLiterals) {
  DratProof proof;
  proof.input_clauses = {{1, 3}};  // var 3 > num_vars = 2
  const auto result = cert::check_drat(proof, {1}, 2);
  ASSERT_FALSE(result.valid);
  EXPECT_NE(result.message.find("clause 1"), std::string::npos) << result.message;
}

// ---------------------------------------------------------------------------
// End-to-end: emit, check, save/load round-trip, mutate.
// ---------------------------------------------------------------------------

/// The Δ'=3 matching sequence of Theorem 4.1 (the paper's running example).
Certificate matching_sequence_cert() {
  const std::size_t k = matching_sequence_length(3, 0, 1);
  const auto problems = matching_lower_bound_sequence(3, 0, 1, k);
  REOptions options;
  options.max_configurations = 5'000'000;
  const auto cert = cert::make_sequence_certificate(problems, options);
  EXPECT_TRUE(cert.has_value());
  return cert.value();
}

/// Proper 2-coloring of a 2-regular graph — an RE fixed point.
Problem two_coloring_problem() {
  ParseError error;
  const auto p =
      parse_problem_text("two_coloring", "A^2\nB^2\n---\nA B\n", &error);
  EXPECT_TRUE(p.has_value()) << error.to_string();
  return p.value();
}

/// A fixed-point chain: 2-coloring repeated (RE(Π) == Π up to renaming).
Certificate fixed_point_chain_cert(std::size_t repeats) {
  const std::vector<Problem> problems(repeats, two_coloring_problem());
  const auto cert = cert::make_sequence_certificate(problems);
  EXPECT_TRUE(cert.has_value());
  return cert.value();
}

/// lift_{2,2}(2-coloring) on the odd cycle C_3: genuinely UNSAT (E3b's
/// unsolvable step), with the solver's DRAT refutation attached.
Certificate odd_cycle_lift_cert() {
  const Problem pi = two_coloring_problem();
  const auto cert =
      cert::make_lift_unsat_certificate(pi, 2, 2, make_bipartite_cycle(3));
  EXPECT_TRUE(cert.has_value());
  return cert.value();
}

TEST(Cert, MatchingSequenceCertificateIsValid) {
  const Certificate cert = matching_sequence_cert();
  const auto result = check_certificate(cert);
  EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
}

TEST(Cert, FixedPointChainCertificateIsValid) {
  const Certificate cert = fixed_point_chain_cert(4);
  const auto result = check_certificate(cert);
  EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
}

TEST(Cert, OddCycleLiftCertificateIsValid) {
  const Certificate cert = odd_cycle_lift_cert();
  const auto result = check_certificate(cert);
  EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
  EXPECT_FALSE(cert.lift.proof.input_clauses.empty());
}

TEST(Cert, EmitterRefusesInvalidSequence) {
  // MM_3 is not a relaxation of RE(two-coloring): nothing to certify.
  const std::vector<Problem> problems = {two_coloring_problem(),
                                         make_maximal_matching_problem(3)};
  SequenceReport report;
  EXPECT_FALSE(cert::make_sequence_certificate(problems, {}, &report).has_value());
  EXPECT_FALSE(report.valid);
}

TEST(Cert, EmitterRefusesSolvableLift) {
  // The even cycle C_4 is 2-colorable, so there is no refutation to record.
  const Problem pi = two_coloring_problem();
  EXPECT_FALSE(
      cert::make_lift_unsat_certificate(pi, 2, 2, make_bipartite_cycle(4))
          .has_value());
}

TEST(Cert, SaveLoadRoundTripPreservesValidity) {
  for (const Certificate& cert :
       {matching_sequence_cert(), fixed_point_chain_cert(3),
        odd_cycle_lift_cert()}) {
    const std::string path = temp_file("roundtrip.cert");
    std::string error;
    ASSERT_TRUE(cert::save_certificate(cert, path, &error)) << error;
    Certificate loaded;
    ASSERT_TRUE(cert::load_certificate(path, &loaded, &error)) << error;
    EXPECT_EQ(loaded.kind, cert.kind);
    const auto result = check_certificate(loaded);
    EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
  }
}

// -- Mutations: each weakening must flip the verdict to kInvalid with a
//    message naming the failing step/ingredient. --

TEST(CertMutation, PerturbedPrevFingerprintIsNamed) {
  Certificate cert = matching_sequence_cert();
  cert.sequence.steps[0].prev_fingerprint ^= 1;
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("step 1"), std::string::npos) << result.message;
  EXPECT_NE(result.message.find("fingerprint"), std::string::npos)
      << result.message;
}

TEST(CertMutation, PerturbedReFingerprintIsNamed) {
  Certificate cert = fixed_point_chain_cert(3);
  cert.sequence.steps[1].re_fingerprint ^= 1;
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("step 2"), std::string::npos) << result.message;
  EXPECT_NE(result.message.find("fingerprint"), std::string::npos)
      << result.message;
}

TEST(CertMutation, SwappedWitnessLabelIsRejected) {
  // Some label swaps are harmless (the 2-coloring fixed point is symmetric
  // under A<->B, and its checker must keep accepting those). Use the
  // asymmetric matching step and pick a swap the definition-level check —
  // the trusted base, independent of the cert plumbing under test — proves
  // breaks the witness.
  Certificate cert = matching_sequence_cert();
  auto& step = cert.sequence.steps[0];
  ASSERT_TRUE(step.config_mapping.has_value());
  auto& mapping = *step.config_mapping;
  const Problem& next = cert.sequence.problems[1];
  ASSERT_TRUE(check_relaxation_witness(step.re_problem, next, mapping));
  bool found = false;
  for (auto& [source, image] : mapping) {
    for (std::size_t i = 0; i < image.size() && !found; ++i) {
      for (Label l = 0; l < next.alphabet_size() && !found; ++l) {
        if (l == image[i]) continue;
        const Label saved = image[i];
        image[i] = l;
        if (!check_relaxation_witness(step.re_problem, next, mapping)) {
          found = true;
          break;
        }
        image[i] = saved;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found) << "no image-label change breaks this witness";
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("step 1"), std::string::npos) << result.message;
  EXPECT_NE(result.message.find("relaxation"), std::string::npos)
      << result.message;
}

TEST(CertMutation, SymmetricWitnessSwapStaysValid) {
  // The flip side: 2-coloring is invariant under swapping the two colors,
  // so the swapped map is a different-but-correct witness and the checker
  // must accept it (it validates witnesses, not provenance).
  Certificate cert = fixed_point_chain_cert(3);
  ASSERT_TRUE(cert.sequence.steps[0].label_map.has_value());
  auto& map = *cert.sequence.steps[0].label_map;
  ASSERT_GE(map.size(), 2u);
  std::swap(map[0], map[1]);
  const auto result = check_certificate(cert);
  EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
}

TEST(CertMutation, MissingWitnessIsRejected) {
  Certificate cert = matching_sequence_cert();
  cert.sequence.steps[0].label_map.reset();
  cert.sequence.steps[0].config_mapping.reset();
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("step 1"), std::string::npos) << result.message;
}

TEST(CertMutation, DroppedDratClauseIsRejected) {
  // Drop an input clause the refutation genuinely needs, and recompute the
  // hash so the mutation must be caught by the proof check itself, not the
  // cheaper hash binding. The essential clause is found with the trusted
  // RUP checker, independent of the plumbing under test.
  Certificate cert = odd_cycle_lift_cert();
  const auto original = cert.lift.proof.input_clauses;
  bool found = false;
  for (std::size_t i = 0; i < original.size() && !found; ++i) {
    auto clauses = original;
    clauses.erase(clauses.begin() + static_cast<std::ptrdiff_t>(i));
    DratProof probe;
    probe.input_clauses = clauses;
    probe.steps = cert.lift.proof.steps;
    if (!cert::check_drat(probe, cert.lift.target, cert.lift.num_vars).valid) {
      cert.lift.proof.input_clauses = std::move(clauses);
      cert.lift.cnf_hash =
          cert::lift_cnf_hash(cert.lift.num_vars, cert.lift.proof.input_clauses);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "every single input clause is redundant?";
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("drat"), std::string::npos) << result.message;
}

TEST(CertMutation, RedundantFinalProofStepMayBeDropped) {
  // RUP checking is monotone in the clause set: the solver's final
  // empty-clause log entry is re-derivable by the target check, so
  // dropping it leaves a still-valid (merely less explicit) certificate.
  Certificate cert = odd_cycle_lift_cert();
  auto& steps = cert.lift.proof.steps;
  ASSERT_FALSE(steps.empty());
  ASSERT_FALSE(steps.back().is_delete);
  ASSERT_TRUE(steps.back().lits.empty());
  steps.pop_back();
  const auto result = check_certificate(cert);
  EXPECT_EQ(result.status, CertStatus::kValid) << result.message;
}

TEST(CertMutation, DroppedInputClauseBreaksTheHashBinding) {
  Certificate cert = odd_cycle_lift_cert();
  ASSERT_FALSE(cert.lift.proof.input_clauses.empty());
  cert.lift.proof.input_clauses.pop_back();
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("hash"), std::string::npos) << result.message;
}

TEST(CertMutation, ForeignProofIsRejectedByTheHashBinding) {
  Certificate cert = odd_cycle_lift_cert();
  // Swap in a trivially-UNSAT foreign CNF + proof without updating the
  // recorded hash: the proof no longer belongs to the recorded claim.
  cert.lift.proof.input_clauses = {{1}, {-1}};
  cert.lift.proof.steps.clear();
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("hash"), std::string::npos) << result.message;
}

TEST(CertMutation, OverDegreeSupportIsRejected) {
  Certificate cert = odd_cycle_lift_cert();
  // Duplicate an edge: some white node now has degree 3 > Δ = 2.
  ASSERT_FALSE(cert.lift.edges.empty());
  cert.lift.edges.push_back(cert.lift.edges.front());
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("degree"), std::string::npos) << result.message;
}

TEST(CertMutation, NonEmptyTargetIsRejected) {
  Certificate cert = odd_cycle_lift_cert();
  cert.lift.target = {1};
  const auto result = check_certificate(cert);
  ASSERT_EQ(result.status, CertStatus::kInvalid);
  EXPECT_NE(result.message.find("target"), std::string::npos) << result.message;
}

// ---------------------------------------------------------------------------
// The standalone binary: 0 valid / 1 invalid / 2 malformed, end to end.
// ---------------------------------------------------------------------------

int run_cert_check(const std::string& path) {
  const std::string cmd = std::string("'") + SLOCAL_CERT_CHECK_PATH + "' '" +
                          path + "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(CertCheckBinary, ValidCertificateExitsZero) {
  const std::string path = temp_file("binary_valid.cert");
  std::string error;
  ASSERT_TRUE(cert::save_certificate(odd_cycle_lift_cert(), path, &error)) << error;
  EXPECT_EQ(run_cert_check(path), 0);
}

TEST(CertCheckBinary, InvalidCertificateExitsOne) {
  // Well-formed container, failing claim: perturb a fingerprint and re-save.
  Certificate cert = fixed_point_chain_cert(3);
  cert.sequence.steps[0].next_fingerprint ^= 1;
  const std::string path = temp_file("binary_invalid.cert");
  std::string error;
  ASSERT_TRUE(cert::save_certificate(cert, path, &error)) << error;
  EXPECT_EQ(run_cert_check(path), 1);
}

TEST(CertCheckBinary, CorruptCertificateExitsTwo) {
  const std::string path = temp_file("binary_corrupt.cert");
  std::string error;
  ASSERT_TRUE(cert::save_certificate(matching_sequence_cert(), path, &error))
      << error;
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  text[text.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
  EXPECT_EQ(run_cert_check(path), 2);
}

TEST(CertCheckBinary, MissingFileExitsTwoAndBadUsageExitsSixtyFour) {
  EXPECT_EQ(run_cert_check(temp_file("does_not_exist.cert")), 2);
  const std::string cmd = std::string("'") + SLOCAL_CERT_CHECK_PATH +
                          "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 64);
}

}  // namespace
}  // namespace slocal
