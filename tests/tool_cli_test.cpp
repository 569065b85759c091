// End-to-end regression tests for the slocal_tool binary's exit-code
// contract, driven through a real process spawn. The contract is what
// scripts and CI pipelines key on: 0 = solvable, 2 = proven unsolvable,
// 3 = budget exhausted (kExitExhausted — no verdict, never a wrong one),
// 1 = bad input, 64 = usage error.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

/// Runs `slocal_tool <args>` with stdout/stderr discarded; returns the
/// process exit code (-1 if the tool did not exit normally).
int run_tool(const std::string& args) {
  const std::string cmd =
      std::string("'") + SLOCAL_TOOL_PATH + "' " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Same, but captures stdout into *out.
int run_tool_capture(const std::string& args, std::string* out) {
  const std::string capture =
      (std::filesystem::path(testing::TempDir()) / "tool_stdout.txt").string();
  const std::string cmd = std::string("'") + SLOCAL_TOOL_PATH + "' " + args +
                          " >'" + capture + "' 2>/dev/null";
  const int status = std::system(cmd.c_str());
  std::ifstream in(capture);
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string problem(const char* name) {
  return std::string("'") + SLOCAL_PROBLEM_DIR + "/" + name + "' ";
}

// ------------------------------------------------------ exit-code contract
//
// The whole exit-code contract as one table. Every row is one pinned fact:
// `slocal_tool <args>` exits with exactly <expected>. Adding a command means
// adding its rows here — the table is the contract scripts and CI key on.
// Tests that additionally inspect stdout or produced files stay standalone
// below.

struct ExitRow {
  const char* name;  ///< test-name suffix; [A-Za-z0-9] only
  std::string args;
  int expected;
};

void PrintTo(const ExitRow& row, std::ostream* os) {
  *os << "slocal_tool " << row.args << " must exit " << row.expected;
}

std::vector<ExitRow> exit_rows() {
  // Reused fragments. The K_{3,3} edge-parity budget rows pin a global
  // contradiction (a double-counting argument over the whole graph) that no
  // engine — CDCL under any seed, backtracking under any order — can decide
  // within one node/conflict, so every racer trips its cap and the tool must
  // report exit 3 rather than pretend --max-nodes was honored.
  const std::string parity_capped =
      "portfolio " + problem("edge_parity_3.txt") + "complete:3x3 --max-nodes=1";
  const std::string sweep_cycles =
      "sweep " + problem("two_coloring.txt") + "2 2 cycles:2..6";
  const std::string matching_family =
      problem("matching_3_0_1.txt") + problem("matching_3_1_1.txt");
  return {
      // portfolio: 0 = solvable, 2 = proven unsolvable, 3 = exhausted.
      {"PortfolioSolvableEvenCycle",
       "portfolio " + problem("two_coloring.txt") + "cycle:4", 0},
      {"PortfolioUnsolvableOddCycle",
       "portfolio " + problem("two_coloring.txt") + "cycle:3", 2},
      {"PortfolioExhaustsOnCappedParity", parity_capped, 3},
      {"PortfolioParityUnsolvable",
       "portfolio " + problem("edge_parity_3.txt") + "complete:3x3", 2},
      // The removed --no-inprocessing flag is a usage error on every command
      // that once accepted it; the same commands without it are rows above.
      {"PortfolioExhaustsOnCappedParityNoInprocessing",
       parity_capped + " --no-inprocessing", 64},
      {"PortfolioSolvableNoInprocessing",
       "portfolio " + problem("two_coloring.txt") + "cycle:4 --no-inprocessing",
       64},
      {"PortfolioUnsolvableNoInprocessing",
       "portfolio " + problem("two_coloring.txt") + "cycle:3 --no-inprocessing",
       64},
      {"PortfolioParityUnsolvableNoInprocessing",
       "portfolio " + problem("edge_parity_3.txt") +
           "complete:3x3 --no-inprocessing",
       64},
      // sweep: decides the cycle family incrementally and from scratch;
      // exhausts under a one-node cap; rejects lift targets the problem
      // cannot dominate (maximal_matching_3 has black degree 2, so r = 1
      // cannot host the lift).
      {"SweepDecidesCycles", sweep_cycles, 0},
      {"SweepDecidesCyclesScratch", sweep_cycles + " --scratch", 0},
      {"SweepDecidesCyclesNoInprocessing",
       sweep_cycles + " --no-inprocessing", 64},
      {"SweepExhaustsUnderNodeCap", sweep_cycles + " --max-nodes=1", 3},
      {"SweepRejectsNonDominatingLift",
       "sweep " + problem("maximal_matching_3.txt") + "3 1 gadgets:1..3", 1},
      // sequence: two_coloring is an RE fixed point (repeat chains verify);
      // maximal_matching_3 is not a relaxation of RE(two_coloring).
      {"SequenceVerifiesFixedPointChain",
       "sequence " + problem("two_coloring.txt") + "--repeat=3", 0},
      {"SequenceRejectsNonRelaxationChain",
       "sequence " + problem("two_coloring.txt") +
           problem("maximal_matching_3.txt"),
       2},
      {"SequenceNeedsTwoProblems", "sequence " + problem("two_coloring.txt"),
       1},
      // discover: 0 = chain found, 1 = definitive none, 3 = budget
      // exhausted before an answer, 64 = usage. The found row rediscovers
      // the two_coloring pump; the none row asks the dead-end singleton
      // Π_3(1,1) for a length-2 chain; the exhausted row caps expansions at
      // 1 so the matching chain stays out of reach.
      {"DiscoverFindsColoringPump",
       "discover " + problem("two_coloring.txt") + "--target-length=3", 0},
      {"DiscoverReportsNoneOnDeadEnd",
       "discover " + problem("matching_3_1_1.txt") + "--target-length=2", 1},
      {"DiscoverExhaustsUnderExpansionCap",
       "discover " + matching_family + "--target-length=2 --max-expansions=1",
       3},
      {"DiscoverWithoutFamilyIsUsage", "discover", 64},
      // usage and input errors, shared across commands.
      {"NoArgsIsUsage", "", 64},
      {"UnknownCommandIsUsage",
       "frobnicate " + problem("two_coloring.txt") + "cycle:4", 64},
      // Unknown flags are usage errors, never positionals: a misspelled
      // budget flag must not run the sweep unbudgeted.
      {"SweepRejectsMisspelledBudgetFlag",
       "sweep " + problem("maximal_matching_3.txt") + "3 3 gadgets:1..2 --max-node=1",
       64},
      {"MissingProblemFileIsInputError",
       "portfolio " + problem("no_such_problem.txt") + "cycle:4", 1},
      {"BadInstanceSpecIsInputError",
       "portfolio " + problem("two_coloring.txt") + "pentagon", 1},
      // simulate: 0 = all halted, 2 = live nodes at the round cap, 3 =
      // budget exhausted mid-run (one node / 1ms on a 20k-node instance:
      // no verdict may be printed), 1 = bad spec, 64 = missing positionals.
      {"SimulateExitsTwoAtRoundCap", "simulate greedy-mis path:64 --rounds=3",
       2},
      {"SimulateExhaustsUnderNodeCap",
       "simulate luby-mis regular:20000x4 --max-nodes=1", 3},
      {"SimulateExhaustsUnderDeadline",
       "simulate luby-mis regular:20000x4 --timeout-ms=1 --rounds=1000000", 3},
      {"SimulateRejectsBadInstance", "simulate luby-mis pentagon", 1},
      {"SimulateRejectsUnknownAlgorithm", "simulate frobnicate cycle:10", 1},
      {"SimulateRejectsDegreeMismatch",
       "simulate ring-coloring torus:4x4", 1},  // ring needs 2-regular
      {"SimulateRejectsOddDegreeSum", "simulate luby-mis regular:5x3", 1},
      {"SimulateWithoutInstanceIsUsage", "simulate luby-mis", 64},
  };
}

class ExitContract : public testing::TestWithParam<ExitRow> {};

TEST_P(ExitContract, PinsExitCode) {
  EXPECT_EQ(run_tool(GetParam().args), GetParam().expected)
      << "slocal_tool " << GetParam().args;
}

INSTANTIATE_TEST_SUITE_P(ToolCli, ExitContract, testing::ValuesIn(exit_rows()),
                         [](const testing::TestParamInfo<ExitRow>& info) {
                           return info.param.name;
                         });

TEST(ToolCli, SequenceCacheColdRunWritesWarmRunHits) {
  const std::string cache =
      (std::filesystem::path(testing::TempDir()) / "cli_re_cache.txt").string();
  std::filesystem::remove(cache);
  const std::string args = "sequence " + problem("two_coloring.txt") +
                           "--repeat=3 --re-cache='" + cache + "'";

  // Cold run: verifies, writes the cache file, misses once (first step).
  std::string out;
  EXPECT_EQ(run_tool_capture(args, &out), 0);
  EXPECT_NE(out.find("sequence: VALID"), std::string::npos) << out;
  EXPECT_NE(out.find("misses=1"), std::string::npos) << out;
  EXPECT_TRUE(std::filesystem::exists(cache));

  // Warm run: same verdict, every step answered from the persisted cache.
  EXPECT_EQ(run_tool_capture(args, &out), 0);
  EXPECT_NE(out.find("sequence: VALID"), std::string::npos) << out;
  EXPECT_NE(out.find("hits=3 misses=0"), std::string::npos) << out;
  EXPECT_NE(out.find("dfs_nodes=0"), std::string::npos) << out;
}

TEST(ToolCli, SequenceRejectsCorruptCacheWithExitTwo) {
  const std::string cache =
      (std::filesystem::path(testing::TempDir()) / "cli_corrupt_cache.txt").string();
  const std::string args = "sequence " + problem("two_coloring.txt") +
                           "--repeat=3 --re-cache='" + cache + "'";
  std::filesystem::remove(cache);
  ASSERT_EQ(run_tool(args), 0);

  // Flip one digit in the persisted file: the load must fail closed
  // (exit 2, no verdict) rather than verify against damaged entries.
  std::ifstream in(cache);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  const std::size_t digit = text.find_last_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '0' ? '1' : '0';
  std::ofstream(cache, std::ios::trunc) << text;

  std::string out;
  EXPECT_EQ(run_tool_capture(args, &out), 2);
  // Never a wrong (or any) verdict from a corrupt cache: the tool bails
  // before verification starts.
  EXPECT_EQ(out.find("sequence:"), std::string::npos) << out;
}

TEST(ToolCli, HelpExitsZeroAndMentionsEveryCommand) {
  std::string out;
  EXPECT_EQ(run_tool_capture("--help", &out), 0);
  for (const char* cmd : {"print", "re", "fixed", "lift", "solve", "zero",
                          "portfolio", "sweep", "sequence", "check-cert",
                          "simulate", "discover", "--emit-cert"}) {
    EXPECT_NE(out.find(cmd), std::string::npos) << "--help misses " << cmd;
  }
}

TEST(ToolCli, UnknownFlagIsNamedOnStderr) {
  const std::string capture =
      (std::filesystem::path(testing::TempDir()) / "tool_stderr.txt").string();
  const std::string cmd = std::string("'") + SLOCAL_TOOL_PATH + "' portfolio " +
                          problem("two_coloring.txt") +
                          "cycle:4 --no-inprocessing >/dev/null 2>'" + capture + "'";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(status != -1 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 64);
  std::ifstream in(capture);
  std::stringstream err;
  err << in.rdbuf();
  EXPECT_NE(err.str().find("unknown flag '--no-inprocessing'"), std::string::npos)
      << err.str();
}

// -- simulate: the batched CSR simulator behind a CLI (exit pins live in
//    the contract table; these check the printed summary). --

TEST(ToolCli, SimulateRunsToCompletion) {
  std::string out;
  EXPECT_EQ(run_tool_capture("simulate luby-mis regular:2000x4 --seed=7", &out), 0);
  EXPECT_NE(out.find("completed=yes"), std::string::npos) << out;
  EXPECT_NE(out.find("mis_size="), std::string::npos) << out;
}

TEST(ToolCli, SimulateOutputIsThreadCountInvariant) {
  // The printed summary carries rounds, messages, and the output statistic;
  // all are bit-identical across thread counts by the CsrNetwork contract.
  std::string serial, all_cores;
  EXPECT_EQ(run_tool_capture(
                "simulate luby-mis regular:3000x4 --seed=11 --threads=1", &serial),
            0);
  EXPECT_EQ(run_tool_capture(
                "simulate luby-mis regular:3000x4 --seed=11 --threads=0",
                &all_cores),
            0);
  // Strip the header line (it prints the resolved thread count).
  const auto tail = [](const std::string& s) {
    return s.substr(s.find('\n') + 1);
  };
  EXPECT_EQ(tail(serial), tail(all_cores));
}

// -- Certificate emission and validation through the CLI. The 0/1/2 contract
//    here must match the standalone cert_check binary's (tests/cert_test.cpp
//    drives that one on the same files). --

int run_cert_check(const std::string& path) {
  const std::string cmd = std::string("'") + SLOCAL_CERT_CHECK_PATH + "' '" +
                          path + "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(ToolCli, SequenceEmitsCertificateBothCheckersAccept) {
  const std::string cert =
      (std::filesystem::path(testing::TempDir()) / "cli_seq.cert").string();
  std::filesystem::remove(cert);
  EXPECT_EQ(run_tool("sequence " + problem("two_coloring.txt") +
                     "--repeat=3 --emit-cert='" + cert + "'"),
            0);
  ASSERT_TRUE(std::filesystem::exists(cert));
  std::string out;
  EXPECT_EQ(run_tool_capture("check-cert '" + cert + "'", &out), 0);
  EXPECT_NE(out.find("VALID"), std::string::npos) << out;
  EXPECT_EQ(run_cert_check(cert), 0);
}

TEST(ToolCli, SweepEmitsLiftUnsatCertificateBothCheckersAccept) {
  // cycles:2..6 contains the odd cycles C_3 and C_5; the first unsolvable
  // support (C_3) gets a from-scratch DRAT refutation.
  const std::string cert =
      (std::filesystem::path(testing::TempDir()) / "cli_lift.cert").string();
  std::filesystem::remove(cert);
  EXPECT_EQ(run_tool("sweep " + problem("two_coloring.txt") +
                     "2 2 cycles:2..6 --emit-cert='" + cert + "'"),
            0);
  ASSERT_TRUE(std::filesystem::exists(cert));
  EXPECT_EQ(run_tool("check-cert '" + cert + "'"), 0);
  EXPECT_EQ(run_cert_check(cert), 0);
}

TEST(ToolCli, SweepEmitCertFailsWhenNothingIsUnsolvable) {
  const std::string cert =
      (std::filesystem::path(testing::TempDir()) / "cli_none.cert").string();
  std::filesystem::remove(cert);
  EXPECT_EQ(run_tool("sweep " + problem("two_coloring.txt") +
                     "2 2 cycles:2..2 --emit-cert='" + cert + "'"),
            1);
  EXPECT_FALSE(std::filesystem::exists(cert));
}

TEST(ToolCli, DiscoverEmitsCertificateBothCheckersAccept) {
  // The rediscovered matching chain's certificate must satisfy both the
  // tool's own checker and the standalone cert_check binary — the driver is
  // untrusted, the certificate is the deliverable.
  const std::string cert =
      (std::filesystem::path(testing::TempDir()) / "cli_discover.cert").string();
  std::filesystem::remove(cert);
  EXPECT_EQ(run_tool("discover " + problem("matching_3_0_1.txt") +
                     problem("matching_3_1_1.txt") +
                     "--target-length=1 --emit-cert='" + cert + "'"),
            0);
  ASSERT_TRUE(std::filesystem::exists(cert));
  std::string out;
  EXPECT_EQ(run_tool_capture("check-cert '" + cert + "'", &out), 0);
  EXPECT_NE(out.find("VALID"), std::string::npos) << out;
  EXPECT_EQ(run_cert_check(cert), 0);
}

TEST(ToolCli, DiscoverRejectsCorruptCheckpointWithExitTwo) {
  // Exhaust once to produce a real "slocal-discover 1" checkpoint, flip one
  // byte, and resume: the tool must fail closed with exit 2 before any
  // search runs — never resume from damaged frontier state.
  const std::string ckpt =
      (std::filesystem::path(testing::TempDir()) / "cli_discover.ckpt").string();
  std::filesystem::remove(ckpt);
  const std::string family =
      problem("matching_3_0_1.txt") + problem("matching_3_1_1.txt");
  ASSERT_EQ(run_tool("discover " + family +
                     "--target-length=2 --max-expansions=1 --checkpoint='" +
                     ckpt + "'"),
            3);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  std::ifstream in(ckpt, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  text[text.size() / 2] ^= 0x01;
  std::ofstream(ckpt, std::ios::trunc | std::ios::binary) << text;

  EXPECT_EQ(run_tool("discover " + family +
                     "--target-length=2 --checkpoint='" + ckpt + "'"),
            2);
}

TEST(ToolCli, CheckCertRejectsCorruptFileWithExitTwo) {
  const std::string cert =
      (std::filesystem::path(testing::TempDir()) / "cli_corrupt.cert").string();
  std::filesystem::remove(cert);
  ASSERT_EQ(run_tool("sequence " + problem("two_coloring.txt") +
                     "--repeat=3 --emit-cert='" + cert + "'"),
            0);
  std::ifstream in(cert, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  text[text.size() / 2] ^= 0x01;
  std::ofstream(cert, std::ios::trunc | std::ios::binary) << text;
  EXPECT_EQ(run_tool("check-cert '" + cert + "'"), 2);
  EXPECT_EQ(run_cert_check(cert), 2);
}

}  // namespace
