// Drives the differential oracle (tests/diff_oracle.hpp): five independent
// engines — including the incremental sweep and the portfolio at one and
// four threads — must agree on every seeded instance, incremental UNSAT
// answers must carry certified failed-assumption cores, the incremental lift sweep must reproduce the
// from-scratch sweep verdict-for-verdict while encoding strictly fewer
// clauses, and sequence verification must be bit-identical across RE-cache
// modes (off / cold / warm / persisted) and thread counts.
#include "tests/diff_oracle.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/lift/sweep.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"

namespace slocal {
namespace {

TEST(DiffOracle, TwoHundredSeededInstancesAgreeAcrossAllEngines) {
  DiffOracleOptions options;  // 200 instances, seed 1, serial portfolio
  const DiffOracleReport report = run_diff_oracle(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.instances, 200);
  // The corpus must actually exercise both verdicts, the brute-force
  // cross-check, and the UNSAT-core certification path (the incremental
  // sweep certifies every core).
  EXPECT_GT(report.yes, 20) << report.summary();
  EXPECT_GT(report.no, 20) << report.summary();
  EXPECT_GT(report.brute_checked, 50) << report.summary();
  EXPECT_GT(report.cores_certified, 20) << report.summary();
}

TEST(DiffOracle, TwoHundredSeededInstancesAgreeAtFourPortfolioThreads) {
  // Same campaign with real portfolio races: four threads mean the
  // backtracker and the CDCL copies genuinely overlap.
  DiffOracleOptions options;
  options.portfolio_threads = 4;
  const DiffOracleReport report = run_diff_oracle(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.instances, 200);
  EXPECT_GT(report.cores_certified, 20) << report.summary();
}

TEST(DiffOracle, ReportIsDeterministicForAGivenSeed) {
  DiffOracleOptions options;
  options.instances = 60;
  options.seed = 7;
  const DiffOracleReport a = run_diff_oracle(options);
  const DiffOracleReport b = run_diff_oracle(options);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_TRUE(a.ok()) << a.summary();
}

TEST(DiffOracle, IndependentSeedsAllPass) {
  for (const std::uint64_t seed : {11u, 222u, 3333u}) {
    DiffOracleOptions options;
    options.instances = 40;
    options.seed = seed;
    const DiffOracleReport report = run_diff_oracle(options);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.summary();
  }
}

TEST(DiffOracle, LiftSweepIncrementalMatchesScratchOnGadgets) {
  // The E3 acceptance instance: a Δ=3, r=1 lift sweep over 6 nested gadget
  // supports. Incremental and from-scratch paths must agree step for step,
  // and the incremental path must reuse (strictly fewer distinct clauses).
  const Problem base = make_maximal_matching_problem(3);
  const auto supports = make_gadget_supports(3, 1, 1, 6);
  ASSERT_EQ(supports.size(), 6u);
  LiftSweepOptions inc;
  inc.incremental = true;
  inc.certify_cores = true;
  const LiftSweepResult a = run_lift_sweep(base, 3, 1, supports, inc);
  LiftSweepOptions scr;
  scr.incremental = false;
  const LiftSweepResult b = run_lift_sweep(base, 3, 1, supports, scr);
  ASSERT_TRUE(a.lift_materialized);
  ASSERT_TRUE(b.lift_materialized);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].verdict, b.steps[i].verdict) << "support " << i;
    EXPECT_NE(a.steps[i].verdict, Verdict::kExhausted) << "support " << i;
  }
  EXPECT_LT(a.total_clauses, b.total_clauses);
  // Steps after the first reuse every guard of the nested prefix.
  for (std::size_t i = 1; i < a.steps.size(); ++i) {
    EXPECT_GT(a.steps[i].reused_guards, 0u) << "support " << i;
  }
}

TEST(DiffOracle, LiftSweepCertifiesCoresOnMixedVerdictFamily) {
  // Proper 2-coloring over growing cycles alternates SAT/UNSAT with the
  // cycle parity; every kNo step must carry a certified non-empty core.
  const Problem c2 = make_proper_coloring_problem(2, 2);
  const auto supports = make_cycle_supports(2, 8);
  LiftSweepOptions inc;
  inc.incremental = true;
  inc.certify_cores = true;
  const LiftSweepResult a = run_lift_sweep(c2, 2, 2, supports, inc);
  LiftSweepOptions scr;
  scr.incremental = false;
  const LiftSweepResult b = run_lift_sweep(c2, 2, 2, supports, scr);
  ASSERT_TRUE(a.lift_materialized);
  ASSERT_EQ(a.steps.size(), supports.size());
  int no_steps = 0;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].verdict, b.steps[i].verdict) << "support " << i;
    if (a.steps[i].verdict == Verdict::kNo) {
      ++no_steps;
      EXPECT_GT(a.steps[i].core_nodes, 0u) << "support " << i;
      EXPECT_EQ(a.steps[i].core_check, Verdict::kNo) << "support " << i;
    }
  }
  // C_h is 2-colorable iff h is even: halves 3, 5, 7 must be kNo.
  EXPECT_EQ(no_steps, 3);
}

std::string cache_file_for(const std::string& tag) {
  return (std::filesystem::path(testing::TempDir()) / ("re_cache_" + tag + ".txt"))
      .string();
}

/// A fixed-point-style chain: the problem repeated under fresh random
/// renamings, the workload the RE cache exists for.
std::vector<Problem> renamed_chain(const Problem& p, std::size_t length, Rng& rng) {
  std::vector<Problem> chain = {p};
  for (std::size_t i = 1; i < length; ++i) {
    std::vector<Label> sigma(p.alphabet_size());
    std::iota(sigma.begin(), sigma.end(), Label{0});
    rng.shuffle(sigma);
    chain.push_back(apply_renaming(p, sigma));
  }
  return chain;
}

TEST(DiffOracle, SequenceCacheModesAgreeOnEveryExampleProblem) {
  DiffOracleReport report;
  for (const auto& entry :
       std::filesystem::directory_iterator(SLOCAL_PROBLEM_DIR)) {
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto p = parse_problem_text(entry.path().filename().string(),
                                      buffer.str(), nullptr);
    ASSERT_TRUE(p.has_value()) << entry.path();
    const std::string tag = entry.path().stem().string();
    Rng rng(1);
    diff_check_sequence_cache(tag, renamed_chain(*p, 4, rng),
                              cache_file_for(tag), &report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.sequences, 8);  // 4 example problems x 2 thread counts
  EXPECT_GT(report.warm_steps, 0) << report.summary();
}

TEST(DiffOracle, SequenceCacheModesAgreeOnMatchingAndColoringFamilies) {
  DiffOracleReport report;
  Rng rng(7);
  // The paper's generated families: MM variants (Definition 4.2 shape) and
  // arbdefective colorings Π_Δ(c) (Definition 5.2; fixed points when c ≤ Δ).
  const std::vector<Problem> family = {
      make_maximal_matching_problem(3), make_matching_problem(3, 1, 1),
      make_coloring_problem(3, 2),      make_coloring_problem(3, 3),
      make_coloring_problem(4, 3)};
  for (const Problem& p : family) {
    diff_check_sequence_cache(p.name(), renamed_chain(p, 4, rng),
                              cache_file_for(p.name()), &report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.sequences, 10);
  // Every family above has computable RE, so every warm step must hit:
  // 5 problems x 2 thread counts x 3 steps.
  EXPECT_EQ(report.warm_steps, 30) << report.summary();
}

TEST(DiffOracle, SequenceCacheModesAgreeOnSeededRandomChains) {
  DiffOracleReport report;
  int built = 0;
  for (std::uint64_t seed = 100; built < 20; ++seed) {
    Rng rng(seed);
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(2));
    const auto p = random_problem(2, 2 + static_cast<std::size_t>(rng.below(2)),
                                  alphabet, rng);
    if (!p.has_value()) continue;
    ++built;
    // No persistence here: keep the hot loop tight across 20 chains.
    diff_check_sequence_cache("seed" + std::to_string(seed),
                              renamed_chain(*p, 3, rng), "", &report);
  }
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.sequences, 40);
}

TEST(DiffOracle, CorruptPersistedCacheIsRejectedWholesale) {
  // Flip one digit anywhere in a persisted cache and loading must fail,
  // leaving the destination cache empty — the disk format's checksum +
  // canonical-form validation is what keeps a wrong verdict impossible.
  const Problem p = make_coloring_problem(3, 2);
  RECache cache;
  REOptions options;
  options.cache = &cache;
  ASSERT_TRUE(round_eliminate(p, options).has_value());
  const std::string path = cache_file_for("corrupt");
  ASSERT_TRUE(cache.save(path));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  const std::size_t digit = text.find_last_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '0' ? '1' : '0';
  std::ofstream(path, std::ios::trunc) << text;

  RECache reloaded;
  std::string error;
  EXPECT_FALSE(reloaded.load(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(reloaded.size(), 0u);
}

}  // namespace
}  // namespace slocal
