// The parallel round-elimination engine must be bit-identical to the
// serial path: same registry order, same constraints, same label meanings,
// for every thread count. Exercised on the seed problems shipped in
// examples/problems/ and on generated families, plus the resource-cap and
// deterministic-counter contracts.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/problems/rulingset_family.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"

namespace slocal {
namespace {

#ifndef SLOCAL_PROBLEM_DIR
#define SLOCAL_PROBLEM_DIR "examples/problems"
#endif

std::vector<Problem> seed_problems() {
  std::vector<Problem> out;
  for (const char* file :
       {"maximal_matching_3.txt", "sinkless_orientation_3.txt", "two_coloring.txt",
        "weak_2_coloring_r3.txt"}) {
    const std::string path = std::string(SLOCAL_PROBLEM_DIR) + "/" + file;
    std::ifstream in(path);
    if (!in.good()) {
      ADD_FAILURE() << "cannot open " << path;
      continue;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const auto sep = text.find("---");
    if (sep == std::string::npos) {
      ADD_FAILURE() << "missing --- separator in " << path;
      continue;
    }
    ParseError error;
    auto problem =
        parse_problem(file, text.substr(0, sep), text.substr(sep + 3), &error);
    if (!problem.has_value()) {
      ADD_FAILURE() << path << ": " << error.message;
      continue;
    }
    out.push_back(std::move(*problem));
  }
  return out;
}

void expect_identical_steps(const Problem& pi, const REOptions& base) {
  REOptions serial = base;
  serial.threads = 1;
  REOptions parallel = base;
  parallel.threads = 4;

  const auto half_s = apply_R(pi, serial);
  const auto half_p = apply_R(pi, parallel);
  ASSERT_EQ(half_s.has_value(), half_p.has_value()) << pi.name();
  if (half_s) {
    // Structural equality: same registry order, same constraint contents.
    EXPECT_TRUE(half_s->problem == half_p->problem) << pi.name();
    EXPECT_EQ(half_s->label_meaning, half_p->label_meaning) << pi.name();
  }

  const auto re_s = round_eliminate(pi, serial);
  const auto re_p = round_eliminate(pi, parallel);
  ASSERT_EQ(re_s.has_value(), re_p.has_value()) << pi.name();
  if (re_s) EXPECT_TRUE(*re_s == *re_p) << pi.name();
}

TEST(REDeterminism, SeedProblemsIdenticalAcrossThreadCounts) {
  std::vector<Problem> problems = seed_problems();
  if (problems.empty()) GTEST_SKIP();
  for (const Problem& pi : problems) expect_identical_steps(pi, REOptions{});
}

TEST(REDeterminism, GeneratedFamiliesIdenticalAcrossThreadCounts) {
  REOptions options;
  options.max_configurations = 5'000'000;
  for (const Problem& pi :
       {make_matching_problem(4, 1, 1), make_matching_problem(5, 1, 2),
        make_maximal_matching_problem(3), make_sinkless_orientation_problem(4),
        make_coloring_problem(4, 3)}) {
    expect_identical_steps(pi, options);
  }
}

TEST(REDeterminism, DefaultThreadCountMatchesSerial) {
  // threads = 0 (all hardware threads) must also match the serial output.
  const Problem pi = make_matching_problem(4, 0, 1);
  REOptions serial;
  serial.threads = 1;
  REOptions all;
  all.threads = 0;
  const auto a = round_eliminate(pi, serial);
  const auto b = round_eliminate(pi, all);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_TRUE(*a == *b);
}

TEST(REDeterminism, PerfCountersMatchAcrossThreadCounts) {
  // The REStats counters (not the wall times) are exact properties of the
  // input, independent of scheduling.
  const Problem pi = make_matching_problem(5, 0, 1);
  REStats serial_stats;
  REStats parallel_stats;
  REOptions serial;
  serial.threads = 1;
  serial.stats = &serial_stats;
  REOptions parallel;
  parallel.threads = 4;
  parallel.stats = &parallel_stats;
  ASSERT_TRUE(round_eliminate(pi, serial).has_value());
  ASSERT_TRUE(round_eliminate(pi, parallel).has_value());
  EXPECT_EQ(serial_stats.dfs_nodes, parallel_stats.dfs_nodes);
  EXPECT_EQ(serial_stats.partials_deduped, parallel_stats.partials_deduped);
  EXPECT_EQ(serial_stats.extendable_calls, parallel_stats.extendable_calls);
  EXPECT_EQ(serial_stats.extension_index_entries,
            parallel_stats.extension_index_entries);
  EXPECT_EQ(serial_stats.configs_enumerated, parallel_stats.configs_enumerated);
  EXPECT_EQ(serial_stats.maximality_probes, parallel_stats.maximality_probes);
  EXPECT_EQ(serial_stats.relaxed_multisets, parallel_stats.relaxed_multisets);
  EXPECT_EQ(serial_stats.threads_used, 1u);
  EXPECT_EQ(parallel_stats.threads_used, 4u);
  EXPECT_GT(parallel_stats.extension_index_entries, 0u);
}

TEST(REDeterminism, OutputsArePinnedAtScale) {
  // Each input has at least 64 valid hardened configurations, so the
  // maximality filter runs its chunked scan; the fingerprints were taken
  // from the pairwise superset-matching filter this one replaced.
  const std::vector<std::pair<Problem, std::uint64_t>> pins = {
      {make_matching_problem(7, 1, 2), 0x6db91bc76f897492ULL},
      {make_matching_problem(8, 2, 3), 0x21b73d769371856fULL},
      {make_matching_problem(10, 1, 2), 0x7620ebd64127b4b8ULL},
      {make_rulingset_problem(4, 2, 1), 0xc69c8a9d80d4f192ULL},
      {make_proper_coloring_problem(3, 4), 0x038e33f57d731546ULL},
  };
  for (const auto& [pi, fingerprint] : pins) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      REStats stats;
      REOptions options;
      options.threads = threads;
      options.stats = &stats;
      const auto re = round_eliminate(pi, options);
      ASSERT_TRUE(re.has_value()) << pi.name() << " threads=" << threads;
      EXPECT_EQ(canonical_fingerprint(*re), fingerprint) << pi.name() << " threads=" << threads;
      EXPECT_GE(stats.configs_enumerated, 64u) << pi.name();
    }
  }
}

TEST(REDeterminism, ResourceCapRejectsIdentically) {
  const Problem pi = make_matching_problem(5, 0, 1);
  REOptions serial;
  serial.threads = 1;
  serial.max_configurations = 10;
  REOptions parallel = serial;
  parallel.threads = 4;
  EXPECT_FALSE(round_eliminate(pi, serial).has_value());
  EXPECT_FALSE(round_eliminate(pi, parallel).has_value());
}

TEST(REDeterminism, StatsAccumulateAcrossCalls) {
  const Problem pi = make_sinkless_orientation_problem(3);
  REStats stats;
  REOptions options;
  options.stats = &stats;
  ASSERT_TRUE(apply_R(pi, options).has_value());
  const std::uint64_t after_one = stats.extendable_calls;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(apply_R(pi, options).has_value());
  EXPECT_EQ(stats.extendable_calls, 2 * after_one);
}

TEST(REDeterminism, ExtensionIndexSurvivesProblemCopies) {
  // The memoized extension index is a shared_ptr cache: copying a Problem
  // (as verify_lower_bound_sequence and the families do constantly) must
  // carry the already-built index instead of forcing a rebuild.
  const Problem pi = make_sinkless_orientation_problem(3);
  EXPECT_FALSE(pi.black().extension_index_built());
  ASSERT_TRUE(pi.black().build_extension_index());
  EXPECT_TRUE(pi.black().extension_index_built());

  const Problem copy = pi;  // NOLINT: the copy is the point
  EXPECT_TRUE(copy.black().extension_index_built());
  EXPECT_EQ(copy.black().extension_index_size(), pi.black().extension_index_size());

  Problem moved = copy;
  const Problem moved_to = std::move(moved);
  EXPECT_TRUE(moved_to.black().extension_index_built());
}

TEST(REDeterminism, ExtensionIndexBuildCountFlatAcrossSequenceRuns) {
  // Verifying the same sequence repeatedly must not rebuild the extension
  // indexes of the caller-held problems: run 1 pays their cache misses and
  // memoizes the index on the (shared, copy-surviving) constraint caches.
  // Later runs only rebuild on the fresh intermediate problem that
  // round_eliminate creates internally, so the build count drops after run
  // 1 and then stays exactly flat.
  const auto re = round_eliminate(make_sinkless_orientation_problem(3), {});
  ASSERT_TRUE(re.has_value());
  // A fresh Π_0: its index cache is cold, so run 1 provably builds it.
  const std::vector<Problem> sequence = {make_sinkless_orientation_problem(3), *re};

  auto builds_for_run = [&sequence]() {
    REStats stats;
    REOptions options;
    options.stats = &stats;
    const SequenceReport report = verify_lower_bound_sequence(sequence, options);
    EXPECT_TRUE(report.valid);
    return stats.extension_index_builds;
  };
  const std::uint64_t run1 = builds_for_run();
  const std::uint64_t run2 = builds_for_run();
  const std::uint64_t run3 = builds_for_run();
  EXPECT_GT(run1, 0u);    // first run actually built something
  EXPECT_LT(run2, run1);  // the input problems' indexes were memoized
  EXPECT_EQ(run2, run3);  // and the count stays flat from then on
}

}  // namespace
}  // namespace slocal
