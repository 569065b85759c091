// Robustness fuzzing: the parser and the solvers must never crash or hang
// on malformed or adversarial inputs — they must fail cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/cert/format.hpp"
#include "src/discover/checkpoint.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/problems/verifiers.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/sequence.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"
#include "tests/temp_file.hpp"

namespace slocal {
namespace {

using testing_support::temp_file;

TEST(Fuzz, ParserSurvivesRandomJunk) {
  Rng rng(13371337);
  const std::string charset = "ABC[]^ 0123456789\n#-_";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng.below(60);
    for (std::size_t i = 0; i < len; ++i) {
      text += charset[rng.below(charset.size())];
    }
    ParseError error;
    // Must return nullopt or a well-formed problem; never crash.
    const auto p = parse_problem("fuzz", text, text, &error);
    if (p) {
      EXPECT_GT(p->white().size(), 0u);
      EXPECT_GT(p->black().size(), 0u);
    }
  }
}

TEST(Fuzz, ParserSurvivesAdversarialCases) {
  for (const char* text : {"", "^", "^3", "[", "]", "[]", "[ ]", "A^", "A^0",
                           "A^999999999999999999999999", "[A B", "A]",
                           "[[A]]", "#only a comment", "---", "A ^ B"}) {
    ParseError error;
    const auto p = parse_problem("adv", text, "A", &error);
    // Most are malformed ("A]" is a stray-']' error, not a label name); the
    // requirement is simply no crash and consistent error reporting.
    // tests/parser_error_test.cpp pins the exact messages and positions.
    if (!p) EXPECT_FALSE(error.message.empty()) << "input: " << text;
  }
}

TEST(Fuzz, SolverHandlesEmptyConstraintProblems) {
  // A problem whose white constraint is non-empty but black is a single
  // impossible pairing on every edge: solver must terminate with nullopt.
  const auto p = parse_problem("imp", "A^2", "B B");
  ASSERT_TRUE(p.has_value());
  const BipartiteGraph g = make_bipartite_cycle(3);
  bool exhausted = false;
  EXPECT_FALSE(solve_bipartite_labeling(g, *p, {}, &exhausted).has_value());
  EXPECT_FALSE(exhausted);
}

TEST(Fuzz, SolverOnEdgelessSupport) {
  const BipartiteGraph g(3, 3);  // no edges at all
  const auto p = parse_problem("any", "A^2", "A^2");
  ASSERT_TRUE(p.has_value());
  const auto labels = solve_bipartite_labeling(g, *p);
  ASSERT_TRUE(labels.has_value());
  EXPECT_TRUE(labels->empty());
}

// ---------------------------------------------------------------------------
// Encoder fuzzing: random (problem, support) pairs through the full CNF
// path — encode, solve, decode, and semantic re-check with the independent
// verifier. The encoder must never crash, and every kSat model must decode
// to a labeling the non-SAT checker accepts.
// ---------------------------------------------------------------------------

/// A random small problem; nullopt when a sampled constraint came out empty.
std::optional<Problem> fuzz_problem(std::size_t dw, std::size_t db,
                                    std::size_t alphabet, Rng& rng) {
  LabelRegistry reg;
  for (std::size_t l = 0; l < alphabet; ++l) {
    reg.intern(std::string(1, static_cast<char>('A' + l)));
  }
  Constraint white(dw), black(db);
  const auto fill = [&](Constraint& c, std::size_t d, double p) {
    for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
      if (rng.chance(p)) {
        std::vector<Label> labels(pick.begin(), pick.end());
        c.add(Configuration(std::move(labels)));
      }
      return true;
    });
  };
  fill(white, dw, 0.25 + 0.5 * rng.uniform());
  fill(black, db, 0.25 + 0.5 * rng.uniform());
  if (white.empty() || black.empty()) return std::nullopt;
  return Problem("fuzz-cnf", reg, white, black);
}

TEST(Fuzz, CnfEncoderRoundTripAgreesWithBacktrackingSolver) {
  Rng rng(20260806);
  int checked = 0, solvable = 0;
  while (checked < 150) {
    const std::size_t dw = 2 + static_cast<std::size_t>(rng.below(2));
    const std::size_t db = 2 + static_cast<std::size_t>(rng.below(2));
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(2));
    const auto pi = fuzz_problem(dw, db, alphabet, rng);
    if (!pi) continue;
    const std::size_t m = 1 + static_cast<std::size_t>(rng.below(2));
    const auto g = random_biregular(db * m, dw, dw * m, db, rng);
    if (!g) continue;
    ++checked;

    const auto cnf = encode_bipartite_labeling(*g, *pi);
    ASSERT_TRUE(cnf.has_value());
    auto solver = cnf->solver;  // keep the encoding reusable
    const SatResult sat = solver.solve();
    ASSERT_NE(sat, SatResult::kUnknown);

    bool exhausted = false;
    const auto reference = solve_bipartite_labeling(*g, *pi, {}, &exhausted);
    ASSERT_FALSE(exhausted);
    EXPECT_EQ(sat == SatResult::kSat, reference.has_value())
        << "encoder and backtracking disagree on " << pi->to_string();

    if (sat == SatResult::kSat) {
      ++solvable;
      // Decode against the original encoding and re-check independently.
      LabelingCnf solved = *cnf;
      solved.solver = solver;
      const auto labels = decode_bipartite_labeling(solved, pi->alphabet_size());
      EXPECT_TRUE(check_bipartite_labeling(*g, *pi, labels))
          << "decoded labeling fails the verifier for " << pi->to_string();
    }
  }
  // The corpus must exercise both branches of the round trip.
  EXPECT_GT(solvable, 10);
  EXPECT_LT(solvable, checked);
}

// ---------------------------------------------------------------------------
// On-disk format corruption: both persisted formats (the RE cache and the
// proof certificate container) carry a whole-payload raw-byte checksum, so
// EVERY byte flip anywhere in the file must be rejected by the loader with
// a structured error — never a crash, never a silently-accepted mutant.
// The CI sanitize job runs this suite under ASan/UBSan.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes every single-byte mutant of `path` (three flip masks per byte;
/// byte positions sampled with a stride for large files) to a scratch file
/// and asserts `load` rejects each one with a non-empty error message.
void expect_every_byte_flip_rejected(
    const std::string& path,
    const std::function<bool(const std::string&, std::string*)>& load) {
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  const std::string mutant_path = temp_file("byte_flip_mutant.bin");
  // Sample for large files: cap the number of probed offsets at ~768.
  const std::size_t stride = std::max<std::size_t>(1, text.size() / 768);
  std::size_t rejected = 0;
  for (std::size_t offset = 0; offset < text.size(); offset += stride) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string mutant = text;
      mutant[offset] = static_cast<char>(
          static_cast<unsigned char>(mutant[offset]) ^ mask);
      std::ofstream(mutant_path, std::ios::trunc | std::ios::binary) << mutant;
      std::string error;
      EXPECT_FALSE(load(mutant_path, &error))
          << "silently accepted a flip of byte " << offset << " (mask 0x"
          << std::hex << static_cast<int>(mask) << ")";
      EXPECT_FALSE(error.empty()) << "rejection without a structured error "
                                  << "at byte " << offset;
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 3u);
}

TEST(Fuzz, ReCacheRejectsEveryByteFlip) {
  // Populate a real cache through a sequence verification, persist it, then
  // storm the file. The pristine file must still load afterwards (the storm
  // never touches the original).
  const auto p = parse_problem("two_coloring", "A^2\nB^2", "A B");
  ASSERT_TRUE(p.has_value());
  const std::vector<Problem> chain(3, *p);
  RECache cache;
  REOptions options;
  options.cache = &cache;
  ASSERT_TRUE(verify_lower_bound_sequence(chain, options).valid);
  ASSERT_GT(cache.size(), 0u);

  const std::string path = temp_file("fuzz_re_cache.txt");
  std::string error;
  ASSERT_TRUE(cache.save(path, &error)) << error;

  expect_every_byte_flip_rejected(path, [](const std::string& f, std::string* e) {
    RECache probe;
    return probe.load(f, e);
  });

  RECache pristine;
  EXPECT_TRUE(pristine.load(path, &error)) << error;
}

TEST(Fuzz, SequenceCertificateRejectsEveryByteFlip) {
  const auto p = parse_problem("two_coloring", "A^2\nB^2", "A B");
  ASSERT_TRUE(p.has_value());
  const std::vector<Problem> chain(3, *p);
  const auto cert = cert::make_sequence_certificate(chain);
  ASSERT_TRUE(cert.has_value());

  const std::string path = temp_file("fuzz_seq.cert");
  std::string error;
  ASSERT_TRUE(cert::save_certificate(*cert, path, &error)) << error;

  expect_every_byte_flip_rejected(path, [](const std::string& f, std::string* e) {
    cert::Certificate probe;
    return cert::load_certificate(f, &probe, e);
  });

  cert::Certificate pristine;
  EXPECT_TRUE(cert::load_certificate(path, &pristine, &error)) << error;
  EXPECT_EQ(cert::check_certificate(pristine).status, cert::CertStatus::kValid);
}

TEST(Fuzz, LiftCertificateRejectsEveryByteFlip) {
  const auto p = parse_problem("two_coloring", "A^2\nB^2", "A B");
  ASSERT_TRUE(p.has_value());
  const auto cert =
      cert::make_lift_unsat_certificate(*p, 2, 2, make_bipartite_cycle(3));
  ASSERT_TRUE(cert.has_value());

  const std::string path = temp_file("fuzz_lift.cert");
  std::string error;
  ASSERT_TRUE(cert::save_certificate(*cert, path, &error)) << error;

  expect_every_byte_flip_rejected(path, [](const std::string& f, std::string* e) {
    cert::Certificate probe;
    return cert::load_certificate(f, &probe, e);
  });

  cert::Certificate pristine;
  EXPECT_TRUE(cert::load_certificate(path, &pristine, &error)) << error;
  EXPECT_EQ(cert::check_certificate(pristine).status, cert::CertStatus::kValid);
}

TEST(Fuzz, DiscoverCheckpointRejectsEveryByteFlip) {
  // Persist a real mid-search frontier ("slocal-discover 1"): run the
  // discovery driver with an expansion cap of 1 so it exhausts and writes
  // its resume state, then storm that file. Every mutant must be rejected
  // with a structured error — a silently-accepted mutant would let a
  // corrupted frontier masquerade as legitimate resume material.
  const std::vector<Problem> family{make_matching_problem(3, 0, 1),
                                    make_matching_problem(3, 1, 1)};
  const std::string path = temp_file("fuzz_discover.ckpt");
  std::filesystem::remove(path);

  discover::DiscoverOptions options;
  options.target_length = 2;  // out of reach: one expansion cannot find it
  options.max_expansions = 1;
  options.checkpoint_path = path;
  const auto result = discover::run_discovery(family, options);
  ASSERT_EQ(result.status, discover::DiscoverStatus::kExhausted) << result.log;
  ASSERT_TRUE(std::filesystem::exists(path));

  expect_every_byte_flip_rejected(path, [](const std::string& f, std::string* e) {
    discover::FrontierCheckpoint probe;
    return discover::load_frontier_checkpoint(f, &probe, e);
  });

  discover::FrontierCheckpoint pristine;
  std::string error;
  ASSERT_TRUE(discover::load_frontier_checkpoint(path, &pristine, &error))
      << error;
  // The untouched file is genuine resume material: its frontier chains
  // re-canonicalize to the fingerprints it claims.
  ASSERT_FALSE(pristine.frontier.empty());
  for (const auto& node : pristine.frontier) {
    ASSERT_EQ(node.chain.size(), node.fingerprints.size());
    for (std::size_t i = 0; i < node.chain.size(); ++i) {
      EXPECT_EQ(canonicalize(node.chain[i]).fingerprint, node.fingerprints[i]);
    }
  }
}

TEST(Fuzz, CnfEncoderModelsDecodeToSemanticMaximalMatchings) {
  // Fixed problem, fuzzed supports: every SAT model of the MM_3 encoding
  // must decode — via the semantic verifier, not the constraint tables —
  // to an actual maximal matching of the support.
  const Problem mm = make_maximal_matching_problem(3);
  const auto m_label = mm.registry().find("M");
  ASSERT_TRUE(m_label.has_value());
  Rng rng(6082026);
  int decoded = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // MM_3 constrains nodes of degree exactly 3 on both sides, so the
    // support must be 3-regular bipartite.
    const std::size_t n = 3 + static_cast<std::size_t>(rng.below(4));
    const auto g = random_biregular(n, 3, n, 3, rng);
    if (!g) continue;
    SatLabelingStats stats;
    const auto labels = solve_bipartite_labeling_sat(*g, mm, 0, &stats);
    ASSERT_NE(stats.result, SatResult::kUnknown);
    if (!labels) continue;
    const auto matched = decode_maximal_matching_labeling(*g, *labels, *m_label);
    EXPECT_TRUE(matched.has_value())
        << "SAT model is not a semantic maximal matching (trial " << trial << ")";
    ++decoded;
  }
  EXPECT_GT(decoded, 20);
}

}  // namespace
}  // namespace slocal
