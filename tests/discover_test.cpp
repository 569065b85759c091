// The rediscovery + certificate battery pinning src/discover:
//
//  * rediscovery: from the hand-authored problem files in examples/problems
//    the driver must re-derive the two known lower-bound sequences — the
//    2-coloring fixed-point pump (Lemma 5.4 shape) and the Δ'=3 matching
//    chain Π_3(0,1) → Π_3(1,1) (Lemma 4.5 / Corollary 4.6) — and emit a
//    `slocal-cert 1` certificate that both the in-process checker and the
//    standalone cert_check binary accept;
//  * soundness: a dead-end family yields kNone and never a certificate;
//  * metamorphic: threads=1 and threads=4 produce byte-identical logs and
//    certificates; label-permuted inputs produce fingerprint-identical
//    finds; a budget-exhausted run resumed from its checkpoint reaches the
//    same find with byte-identical certificate bytes as an uninterrupted
//    run;
//  * checkpoint: the "slocal-discover 1" format round-trips, rejects
//    corruption fail-closed (kCorrupt, nothing searched), and a definitive
//    outcome removes the file.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "src/cert/check.hpp"
#include "src/cert/format.hpp"
#include "src/discover/checkpoint.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/problems/matching_family.hpp"
#include "tests/temp_file.hpp"

namespace slocal::discover {
namespace {

using testing_support::temp_file;

Problem load_example(const char* name) {
  const std::string path = std::string(SLOCAL_PROBLEM_DIR "/") + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  ParseError error;
  const auto p = parse_problem_text(name, buffer.str(), &error);
  EXPECT_TRUE(p.has_value()) << error.to_string();
  return *p;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Saves `cert` and returns its exact on-disk bytes (the unit the
/// thread-invariance and resume-equivalence contracts are stated in).
std::string cert_bytes(const cert::Certificate& cert, const char* tag) {
  const std::string path = temp_file(tag);
  std::string error;
  EXPECT_TRUE(cert::save_certificate(cert, path, &error)) << error;
  return slurp(path);
}

/// Runs the standalone cert_check binary (zero shared code with discover/)
/// on a saved certificate and returns its exit code.
int run_standalone_cert_check(const cert::Certificate& cert, const char* tag) {
  const std::string path = temp_file(tag);
  std::string error;
  EXPECT_TRUE(cert::save_certificate(cert, path, &error)) << error;
  const std::string cmd = std::string("'") + SLOCAL_CERT_CHECK_PATH + "' '" +
                          path + "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// ------------------------------------------------------ 0-round triviality

TEST(DiscoverTrivial, AcceptsConstantSolvableProblem) {
  // Every white node can output A^2 and every black multiset over {A} is in
  // C_B: solvable with zero communication, so no lower bound lives here.
  ParseError error;
  const auto p = parse_problem_text("const", "A^2\n---\nA A\n", &error);
  ASSERT_TRUE(p.has_value()) << error.to_string();
  EXPECT_TRUE(zero_round_trivial(*p));
}

TEST(DiscoverTrivial, RejectsTwoColoringAndMatching) {
  EXPECT_FALSE(zero_round_trivial(load_example("two_coloring.txt")));
  EXPECT_FALSE(zero_round_trivial(load_example("matching_3_0_1.txt")));
  EXPECT_FALSE(zero_round_trivial(make_matching_problem(3, 1, 1)));
}

// ------------------------------------------------------------- rediscovery

TEST(DiscoverRediscovery, TwoColoringPumpToTargetLength) {
  // The 2-coloring problem is an RE fixed point: one pump test must extend
  // the chain to any requested length, and the certificate for the padded
  // chain must satisfy both checkers.
  const std::vector<Problem> family{load_example("two_coloring.txt")};
  const std::uint64_t root_fp = canonicalize(family[0]).fingerprint;

  DiscoverOptions options;
  options.target_length = 3;
  const DiscoverResult result = run_discovery(family, options);

  ASSERT_EQ(result.status, DiscoverStatus::kFound) << result.log;
  ASSERT_EQ(result.found.size(), 1u);
  const Discovery& find = result.found.front();
  EXPECT_TRUE(find.pumped);
  ASSERT_EQ(find.chain.size(), 4u);
  ASSERT_EQ(find.fingerprints.size(), 4u);
  for (const std::uint64_t fp : find.fingerprints) EXPECT_EQ(fp, root_fp);

  EXPECT_EQ(cert::check_certificate(find.certificate).status,
            cert::CertStatus::kValid);
  EXPECT_EQ(run_standalone_cert_check(find.certificate, "tc_pump.cert"), 0);
  EXPECT_EQ(result.stats.pumps_found, 1u);
  EXPECT_EQ(result.stats.certs_emitted, 1u);
}

TEST(DiscoverRediscovery, MatchingChainFromHandAuthoredFiles) {
  // The Δ'=3 matching chain of Corollary 4.6, rediscovered from the
  // hand-authored files: the driver must pick Π_3(1,1) out of the candidate
  // pool as a relaxation of RE(Π_3(0,1)). The found fingerprints must match
  // the programmatic family definition exactly — that is the rediscovery
  // pin, not just "some chain was found".
  const std::vector<Problem> family{load_example("matching_3_0_1.txt"),
                                    load_example("matching_3_1_1.txt")};
  ASSERT_EQ(canonicalize(family[0]).fingerprint,
            canonicalize(make_matching_problem(3, 0, 1)).fingerprint);
  ASSERT_EQ(canonicalize(family[1]).fingerprint,
            canonicalize(make_matching_problem(3, 1, 1)).fingerprint);

  DiscoverOptions options;
  options.target_length = 1;
  const DiscoverResult result = run_discovery(family, options);

  ASSERT_EQ(result.status, DiscoverStatus::kFound) << result.log;
  ASSERT_EQ(result.found.size(), 1u);
  const Discovery& find = result.found.front();
  EXPECT_FALSE(find.pumped);
  ASSERT_EQ(find.fingerprints.size(), 2u);
  EXPECT_EQ(find.fingerprints[0],
            canonicalize(make_matching_problem(3, 0, 1)).fingerprint);
  EXPECT_EQ(find.fingerprints[1],
            canonicalize(make_matching_problem(3, 1, 1)).fingerprint);

  EXPECT_EQ(cert::check_certificate(find.certificate).status,
            cert::CertStatus::kValid);
  EXPECT_EQ(run_standalone_cert_check(find.certificate, "match_chain.cert"), 0);
}

TEST(DiscoverRediscovery, DeadEndFamilyReportsNoneAndNeverEmitsACert) {
  // RE(Π_3(1,1)) is 0-round trivial, so no chain of length 2 exists from
  // this singleton family: the definitive answer is kNone — and soundness
  // means zero certificates, not a bogus one.
  const std::vector<Problem> family{load_example("matching_3_1_1.txt")};
  DiscoverOptions options;
  options.target_length = 2;
  const DiscoverResult result = run_discovery(family, options);
  EXPECT_EQ(result.status, DiscoverStatus::kNone) << result.log;
  EXPECT_TRUE(result.found.empty());
  EXPECT_EQ(result.stats.certs_emitted, 0u);
}

TEST(DiscoverRediscovery, AllTrivialFamilyReportsNone) {
  ParseError error;
  const auto trivial = parse_problem_text("const", "A^2\n---\nA A\n", &error);
  ASSERT_TRUE(trivial.has_value());
  const DiscoverResult result = run_discovery({*trivial}, {});
  EXPECT_EQ(result.status, DiscoverStatus::kNone);
  EXPECT_TRUE(result.found.empty());
  EXPECT_EQ(result.stats.candidates_trivial, 1u);
}

// -------------------------------------------------------- metamorphic pins

TEST(DiscoverMetamorphic, ThreadCountsProduceByteIdenticalLogsAndCerts) {
  const std::vector<Problem> matching{load_example("matching_3_0_1.txt"),
                                      load_example("matching_3_1_1.txt")};
  const std::vector<Problem> coloring{load_example("two_coloring.txt")};
  const struct {
    const std::vector<Problem>& family;
    std::size_t target;
  } workloads[] = {{matching, 1}, {coloring, 3}};

  for (const auto& [family, target] : workloads) {
    std::string log_t1, cert_t1;
    for (const std::size_t threads : {1u, 4u}) {
      DiscoverOptions options;
      options.target_length = target;
      options.threads = threads;
      const DiscoverResult result = run_discovery(family, options);
      ASSERT_EQ(result.status, DiscoverStatus::kFound) << result.log;
      const std::string bytes =
          cert_bytes(result.found.front().certificate, "threads.cert");
      if (threads == 1) {
        log_t1 = result.log;
        cert_t1 = bytes;
      } else {
        EXPECT_EQ(result.log, log_t1) << "discovery log differs at threads=4";
        EXPECT_EQ(bytes, cert_t1) << "certificate bytes differ at threads=4";
      }
    }
  }
}

TEST(DiscoverMetamorphic, LabelPermutedInputsFindFingerprintIdenticalChains) {
  // Renaming the input labels must not change what is discovered: the
  // canonical fingerprints of the found chain are renaming-invariant, so
  // the permuted family has to produce the exact same fingerprint sequence.
  const std::vector<Problem> family{load_example("matching_3_0_1.txt"),
                                    load_example("matching_3_1_1.txt")};
  // A nontrivial permutation of the 5 labels M, P, O, X, Z (reversal).
  std::vector<Problem> permuted;
  for (const Problem& p : family) {
    std::vector<Label> perm(p.alphabet_size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      perm[i] = static_cast<Label>(perm.size() - 1 - i);
    }
    permuted.push_back(apply_renaming(p, perm));
  }

  DiscoverOptions options;
  options.target_length = 1;
  const DiscoverResult original = run_discovery(family, options);
  const DiscoverResult renamed = run_discovery(permuted, options);

  ASSERT_EQ(original.status, DiscoverStatus::kFound);
  ASSERT_EQ(renamed.status, DiscoverStatus::kFound) << renamed.log;
  EXPECT_EQ(original.found.front().fingerprints,
            renamed.found.front().fingerprints);
  EXPECT_EQ(original.found.front().pumped, renamed.found.front().pumped);
  // The log prints fingerprints and sizes only — no label names — so it is
  // renaming-invariant too.
  EXPECT_EQ(original.log, renamed.log);
}

/// Inverts the default preference so the dead-end root Π_3(1,1) is expanded
/// before Π_3(0,1) — making the find land on expansion 2, which gives the
/// resume test a real interruption point.
class LargeFirstHeuristic : public Heuristic {
 public:
  std::uint64_t score(const CandidateView& view) const override {
    const std::uint64_t small = SmallFirstHeuristic().score(view);
    return 1'000'000'000'000ull - small;
  }
};

TEST(DiscoverMetamorphic, ResumeFromCheckpointMatchesUninterruptedRun) {
  const std::vector<Problem> family{load_example("matching_3_0_1.txt"),
                                    load_example("matching_3_1_1.txt")};
  const LargeFirstHeuristic heuristic;

  // Uninterrupted: expansion 1 hits the Π_3(1,1) dead end, expansion 2
  // finds the chain from Π_3(0,1).
  DiscoverOptions base;
  base.target_length = 1;
  base.heuristic = &heuristic;
  const DiscoverResult uninterrupted = run_discovery(family, base);
  ASSERT_EQ(uninterrupted.status, DiscoverStatus::kFound) << uninterrupted.log;
  ASSERT_EQ(uninterrupted.stats.expansions, 2u) << uninterrupted.log;
  const std::string cert_full =
      cert_bytes(uninterrupted.found.front().certificate, "resume_full.cert");

  // Interrupted after expansion 1: the exhausted run persists its frontier.
  const std::string checkpoint = temp_file("resume.ckpt");
  std::filesystem::remove(checkpoint);
  DiscoverOptions interrupted = base;
  interrupted.max_expansions = 1;
  interrupted.checkpoint_path = checkpoint;
  const DiscoverResult partial = run_discovery(family, interrupted);
  ASSERT_EQ(partial.status, DiscoverStatus::kExhausted) << partial.log;
  ASSERT_TRUE(std::filesystem::exists(checkpoint));

  // Resume: same find, same fingerprints, byte-identical certificate.
  DiscoverOptions resume = base;
  resume.checkpoint_path = checkpoint;
  const DiscoverResult resumed = run_discovery(family, resume);
  ASSERT_EQ(resumed.status, DiscoverStatus::kFound) << resumed.log;
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.expansions, uninterrupted.stats.expansions);
  EXPECT_EQ(resumed.stats.nodes_spent, uninterrupted.stats.nodes_spent);
  EXPECT_EQ(resumed.found.front().fingerprints,
            uninterrupted.found.front().fingerprints);
  EXPECT_EQ(cert_bytes(resumed.found.front().certificate, "resume_part.cert"),
            cert_full);
  // The definitive outcome removes the checkpoint — a stale frontier must
  // never leak into the next search.
  EXPECT_FALSE(std::filesystem::exists(checkpoint));
}

TEST(DiscoverMetamorphic, BudgetExhaustionNeverFlipsAFoundVerdict) {
  // Once a find is emitted, later budget trips may not downgrade it: ask
  // for two finds with an expansion cap that stops after the first.
  const std::vector<Problem> family{load_example("two_coloring.txt")};
  DiscoverOptions options;
  options.target_length = 3;
  options.max_finds = 2;
  options.max_expansions = 1;
  const DiscoverResult result = run_discovery(family, options);
  EXPECT_EQ(result.status, DiscoverStatus::kFound) << result.log;
  EXPECT_EQ(result.found.size(), 1u);
}

// --------------------------------------------------- checkpoint round-trip

FrontierCheckpoint sample_checkpoint() {
  FrontierCheckpoint cp;
  cp.target_length = 2;
  cp.next_seq = 7;
  cp.expansions = 3;
  cp.nodes_spent = 1234;
  cp.finds_emitted = 0;
  cp.definitive = false;
  const Problem p0 = make_matching_problem(3, 0, 1);
  const Problem p1 = make_matching_problem(3, 1, 1);
  cp.visited = {canonicalize(p0).fingerprint, canonicalize(p1).fingerprint};
  std::sort(cp.visited.begin(), cp.visited.end());
  FrontierNode node;
  node.score = 42;
  node.seq = 5;
  node.chain = {p0, p1};
  node.fingerprints = {canonicalize(p0).fingerprint,
                       canonicalize(p1).fingerprint};
  cp.frontier.push_back(node);
  return cp;
}

TEST(DiscoverCheckpoint, RoundTripsThroughDisk) {
  const FrontierCheckpoint cp = sample_checkpoint();
  const std::string path = temp_file("roundtrip.ckpt");
  std::string error;
  ASSERT_TRUE(save_frontier_checkpoint(cp, path, &error)) << error;

  FrontierCheckpoint loaded;
  ASSERT_TRUE(load_frontier_checkpoint(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.target_length, cp.target_length);
  EXPECT_EQ(loaded.next_seq, cp.next_seq);
  EXPECT_EQ(loaded.expansions, cp.expansions);
  EXPECT_EQ(loaded.nodes_spent, cp.nodes_spent);
  EXPECT_EQ(loaded.definitive, cp.definitive);
  EXPECT_EQ(loaded.visited, cp.visited);
  ASSERT_EQ(loaded.frontier.size(), 1u);
  EXPECT_EQ(loaded.frontier[0].score, 42u);
  EXPECT_EQ(loaded.frontier[0].seq, 5u);
  EXPECT_EQ(loaded.frontier[0].fingerprints, cp.frontier[0].fingerprints);
  // The chain problems survive structurally (canonical fingerprints agree).
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(canonicalize(loaded.frontier[0].chain[i]).fingerprint,
              cp.frontier[0].fingerprints[i]);
  }
  // The serialized form is a deterministic function of the checkpoint.
  EXPECT_EQ(serialize_frontier_checkpoint(loaded),
            serialize_frontier_checkpoint(cp));
}

TEST(DiscoverCheckpoint, CorruptFileYieldsKCorruptWithoutSearching) {
  const std::string path = temp_file("corrupt.ckpt");
  std::string error;
  ASSERT_TRUE(save_frontier_checkpoint(sample_checkpoint(), path, &error));
  std::string text = slurp(path);
  text[text.size() / 2] ^= 0x01;
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;

  const std::vector<Problem> family{load_example("two_coloring.txt")};
  DiscoverOptions options;
  options.target_length = 3;
  options.checkpoint_path = path;
  const DiscoverResult result = run_discovery(family, options);
  EXPECT_EQ(result.status, DiscoverStatus::kCorrupt);
  EXPECT_TRUE(result.found.empty());
  // Fail-closed means fail-early: no expansion ran, no cert was emitted.
  EXPECT_EQ(result.stats.expansions, 0u);
  EXPECT_EQ(result.stats.certs_emitted, 0u);
  // The damaged file is left in place for diagnosis, never overwritten.
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(DiscoverCheckpoint, RejectsFingerprintMismatchInsideValidChecksum) {
  // Defense in depth: a payload whose checksum is recomputed to match but
  // whose stored fingerprint disagrees with the re-canonicalized problem
  // must still be rejected (load re-derives every fingerprint).
  FrontierCheckpoint cp = sample_checkpoint();
  cp.frontier[0].fingerprints[0] ^= 1;  // lie about the chain head
  const std::string path = temp_file("fp_mismatch.ckpt");
  std::string error;
  ASSERT_TRUE(save_frontier_checkpoint(cp, path, &error));
  FrontierCheckpoint loaded;
  EXPECT_FALSE(load_frontier_checkpoint(path, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace slocal::discover
