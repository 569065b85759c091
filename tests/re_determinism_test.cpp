// The parallel round-elimination engine must be bit-identical to the
// serial path: same registry order, same constraints, same label meanings,
// for every thread count. Exercised on the seed problems shipped in
// examples/problems/ and on generated families, plus the resource-cap and
// deterministic-counter contracts, and the fingerprint round_eliminate
// hands to the sequence report and the certificate.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/problems/rulingset_family.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"

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

/// Inputs with at least 64 valid hardened configurations each, so the
/// maximality filter runs its chunked scan, and the fingerprints of their RE
/// outputs, taken from the pairwise superset-matching filter this one
/// replaced.
std::vector<std::pair<Problem, std::uint64_t>> pinned_problems() {
  return {
      {make_matching_problem(7, 1, 2), 0x6db91bc76f897492ULL},
      {make_matching_problem(8, 2, 3), 0x21b73d769371856fULL},
      {make_matching_problem(10, 1, 2), 0x7620ebd64127b4b8ULL},
      {make_rulingset_problem(4, 2, 1), 0xc69c8a9d80d4f192ULL},
      {make_proper_coloring_problem(3, 4), 0x038e33f57d731546ULL},
  };
}

TEST(REDeterminism, OutputsArePinnedAtScale) {
  for (const auto& [pi, fingerprint] : pinned_problems()) {
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

TEST(REDeterminism, OutputIsInCanonicalFormAndCachedAsIs) {
  // round_eliminate reindexes its output canonically, so the RE cache
  // stores it under synthetic names without canonicalizing it again: the
  // stored entry is the one a full canonicalization of the output gives.
  for (const auto& [pi, fingerprint] : pinned_problems()) {
    const auto re = round_eliminate(pi);
    ASSERT_TRUE(re.has_value()) << pi.name();
    const CanonicalForm canonical = canonicalize(*re);
    EXPECT_TRUE(same_constraints(canonical.problem, *re)) << pi.name();

    RECache cache;
    REOptions options;
    options.cache = &cache;
    const auto cached_run = round_eliminate(pi, options);
    ASSERT_TRUE(cached_run.has_value()) << pi.name();
    EXPECT_TRUE(*cached_run == *re) << pi.name();
    EXPECT_EQ(cache.counters().misses, 1u) << pi.name();
    RECache reference;
    reference.insert(canonicalize(pi), canonical.problem);
    EXPECT_EQ(cache.serialize(), reference.serialize()) << pi.name();
  }
}

TEST(REDeterminism, ReusedFingerprintsMatchAFreshCanonicalization) {
  // round_eliminate hands out the fingerprint its canonical reindex already
  // computed, and the sequence report and the certificate carry it instead
  // of canonicalizing RE(Π) again. Each must equal a fresh canonicalization
  // on every path: cache off, a cold cache (miss) and a warm one (hit), at
  // threads 1 and 4.
  for (const auto& [pi, fingerprint] : pinned_problems()) {
    // One step onto the one-label problem that allows everything: a
    // relaxation of any problem with its degrees, found by a label map.
    LabelRegistry one;
    const Label a = one.intern("A");
    Constraint white(pi.white_degree());
    white.add(Configuration(std::vector<Label>(pi.white_degree(), a)));
    Constraint black(pi.black_degree());
    black.add(Configuration(std::vector<Label>(pi.black_degree(), a)));
    const Problem anything("anything", std::move(one), std::move(white), std::move(black));
    const std::vector<Problem> chain = {pi, anything};
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      RECache cache;
      for (const char* mode : {"off", "cold", "warm"}) {
        const std::string where =
            pi.name() + " threads=" + std::to_string(threads) + " cache=" + mode;
        REOptions options;
        options.threads = threads;
        if (std::string(mode) != "off") options.cache = &cache;

        SequenceReport report;
        const auto cert = cert::make_sequence_certificate(chain, options, &report);
        ASSERT_TRUE(cert.has_value()) << where;
        ASSERT_EQ(report.steps.size(), 1u) << where;
        const SequenceStepReport& step = report.steps[0];
        EXPECT_EQ(step.re_cache_hit, std::string(mode) == "warm") << where;
        ASSERT_TRUE(step.re_problem.has_value()) << where;
        EXPECT_EQ(step.re_fingerprint, canonical_fingerprint(*step.re_problem)) << where;
        EXPECT_EQ(step.re_fingerprint, fingerprint) << where;
        const cert::SequenceStepCert& emitted = cert->sequence.steps[0];
        EXPECT_EQ(emitted.re_fingerprint, canonical_fingerprint(emitted.re_problem)) << where;
        EXPECT_EQ(emitted.re_fingerprint, fingerprint) << where;
        EXPECT_EQ(emitted.prev_fingerprint, canonical_fingerprint(pi)) << where;
        EXPECT_EQ(emitted.next_fingerprint, canonical_fingerprint(anything)) << where;
        EXPECT_EQ(cert::check_certificate(*cert).status, cert::CertStatus::kValid) << where;
      }

      // The same through round_eliminate directly: off, a miss on a fresh
      // cache, and a hit on the now warm one.
      RECache fresh;
      for (RECache* direct_cache : {static_cast<RECache*>(nullptr), &fresh, &fresh}) {
        REOptions direct;
        direct.threads = threads;
        direct.cache = direct_cache;
        std::uint64_t reported = 0;
        const auto out = round_eliminate(pi, direct, &reported);
        ASSERT_TRUE(out.has_value()) << pi.name();
        EXPECT_EQ(reported, canonical_fingerprint(*out)) << pi.name();
        EXPECT_EQ(reported, fingerprint) << pi.name() << " threads=" << threads;
      }
      EXPECT_EQ(fresh.counters().hits, 1u) << pi.name();
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

}  // namespace
}  // namespace slocal
