#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/formalism/parser.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/round_elimination.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

/// Serial searches: exhaustive, and with the witness search's default cap.
constexpr RelaxationOptions kExhaustive{.node_budget = 0, .threads = 1};
constexpr RelaxationOptions kSerial{.node_budget = 5'000'000, .threads = 1};

TEST(Relaxation, IdentityIsARelaxation) {
  const Problem p = make_matching_problem(4, 1, 1);
  const auto map = find_relaxation_label_map(p, p, kExhaustive).map;
  ASSERT_TRUE(map.has_value());
  for (std::size_t l = 0; l < p.alphabet_size(); ++l) {
    EXPECT_LT((*map)[l], p.alphabet_size());
  }
}

TEST(Relaxation, Observation43MatchingParameters) {
  // Observation 4.3: Π_Δ(x', y') is a relaxation of Π_Δ(x, y) for
  // x' >= x, y' >= y.
  const std::size_t delta = 5;
  const Problem base = make_matching_problem(delta, 0, 1);
  for (const auto [x2, y2] : {std::pair<std::size_t, std::size_t>{1, 1},
                              {0, 2},
                              {1, 2},
                              {2, 1},
                              {2, 2}}) {
    const Problem relaxed = make_matching_problem(delta, x2, y2);
    EXPECT_TRUE(find_relaxation_label_map(base, relaxed, kExhaustive).map.has_value() ||
                find_relaxation_witness(base, relaxed, kSerial).mapping.has_value())
        << "x'=" << x2 << " y'=" << y2;
  }
}

TEST(Relaxation, TighterParametersAreNotARelaxation) {
  // The converse direction must fail: Π_Δ(0,1) is strictly harder.
  const std::size_t delta = 4;
  const Problem tight = make_matching_problem(delta, 0, 1);
  const Problem loose = make_matching_problem(delta, 2, 1);
  const WitnessResult result =
      find_relaxation_witness(loose, tight, {.node_budget = 2'000'000, .threads = 1});
  EXPECT_FALSE(result.mapping.has_value());
  EXPECT_NE(result.verdict, Verdict::kExhausted);
}

TEST(Relaxation, DegreeMismatchRejected) {
  const Problem a = make_matching_problem(4, 0, 1);
  const Problem b = make_matching_problem(5, 0, 1);
  EXPECT_FALSE(find_relaxation_label_map(a, b, kExhaustive).map.has_value());
  EXPECT_FALSE(find_relaxation_witness(a, b, kSerial).mapping.has_value());
}

TEST(Relaxation, ColoringRelaxesToMoreColors) {
  // c-coloring relaxes to (c+1)-coloring (embed the palette).
  const Problem c3 = make_proper_coloring_problem(3, 3);
  const Problem c4 = make_proper_coloring_problem(3, 4);
  EXPECT_TRUE(find_relaxation_label_map(c3, c4, kExhaustive).map.has_value());
  EXPECT_FALSE(find_relaxation_label_map(c4, c3, kExhaustive).map.has_value());
  const WitnessResult result =
      find_relaxation_witness(c4, c3, {.node_budget = 2'000'000, .threads = 1});
  EXPECT_FALSE(result.mapping.has_value());
  EXPECT_NE(result.verdict, Verdict::kExhausted);
}

TEST(Relaxation, WitnessCheckerAcceptsHandBuiltWitness) {
  // Map maximal matching onto itself with the identity config mapping.
  const Problem mm = make_maximal_matching_problem(3);
  ConfigMapping identity;
  for (const auto& c : mm.white().members()) {
    identity[c] = std::vector<Label>(c.labels().begin(), c.labels().end());
  }
  EXPECT_TRUE(check_relaxation_witness(mm, mm, identity));
}

TEST(Relaxation, WitnessCheckerRejectsBadImage) {
  const Problem mm = make_maximal_matching_problem(3);
  ConfigMapping bad;
  const Label m = *mm.registry().find("M");
  for (const auto& c : mm.white().members()) {
    bad[c] = std::vector<Label>(c.size(), m);  // M^Δ is not a white config
  }
  EXPECT_FALSE(check_relaxation_witness(mm, mm, bad));
}

TEST(Relaxation, WitnessCheckerRejectsMissingEntries) {
  const Problem mm = make_maximal_matching_problem(3);
  const ConfigMapping empty;
  EXPECT_FALSE(check_relaxation_witness(mm, mm, empty));
}

TEST(Relaxation, ExactSearchAgreesWithLabelMapOnCorpus) {
  // On a small corpus, whenever a per-label witness exists the exact
  // configuration-mapping search must also find one.
  const std::vector<std::pair<Problem, Problem>> corpus = {
      {make_matching_problem(4, 0, 1), make_matching_problem(4, 1, 1)},
      {make_matching_problem(4, 0, 1), make_matching_problem(4, 2, 1)},
      {make_proper_coloring_problem(3, 2), make_proper_coloring_problem(3, 4)},
      {make_maximal_matching_problem(3), make_maximal_matching_problem(3)},
  };
  for (const auto& [from, to] : corpus) {
    if (find_relaxation_label_map(from, to, kExhaustive).map.has_value()) {
      EXPECT_TRUE(find_relaxation_witness(from, to, kSerial).mapping.has_value())
          << from.name() << " -> " << to.name();
    }
  }
}

// ---------------------------------------------------------------------------
// Definitional oracle: every label map and every configuration mapping is
// enumerated outright, and each is checked against the paper's definition
// with plain membership tests, so the searches' pruning and state tables
// are cross-checked by code that shares none of them.

/// Does `map` send every white and every black configuration of Π into Π'?
bool map_is_relaxation(const Problem& pi, const Problem& pi_prime,
                       const std::vector<Label>& map) {
  const auto into = [&](const Constraint& from, const Constraint& to) {
    for (const Configuration& c : from.members()) {
      std::vector<Label> image;
      for (const Label l : c.labels()) image.push_back(map[l]);
      if (!to.contains(Configuration(std::move(image)))) return false;
    }
    return true;
  };
  return into(pi.white(), pi_prime.white()) && into(pi.black(), pi_prime.black());
}

bool oracle_label_map_exists(const Problem& pi, const Problem& pi_prime) {
  std::vector<Label> map(pi.alphabet_size(), 0);
  while (true) {
    if (map_is_relaxation(pi, pi_prime, map)) return true;
    std::size_t i = 0;
    while (i < map.size() && ++map[i] == pi_prime.alphabet_size()) map[i++] = 0;
    if (i == map.size()) return false;
  }
}

/// Every ordered tuple whose multiset is a white configuration of Π'.
std::vector<std::vector<Label>> ordered_white_images(const Problem& pi_prime) {
  std::vector<std::vector<Label>> out;
  for (const Configuration& c : pi_prime.white().sorted_members()) {
    std::vector<Label> perm(c.labels().begin(), c.labels().end());
    do {
      out.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  return out;
}

/// Under the relation r induced by `mapping`, does every choice over every
/// black configuration of Π lie in C_B(Π')?
bool black_side_holds(const Problem& pi, const Problem& pi_prime,
                      const ConfigMapping& mapping) {
  std::vector<std::vector<std::size_t>> r(pi.alphabet_size());
  for (const auto& [source, image] : mapping) {
    for (std::size_t i = 0; i < source.size(); ++i) r[source[i]].push_back(image[i]);
  }
  for (auto& images : r) {
    std::sort(images.begin(), images.end());
    images.erase(std::unique(images.begin(), images.end()), images.end());
  }
  for (const Configuration& black : pi.black().members()) {
    std::vector<std::vector<std::size_t>> choices;
    for (const Label l : black.labels()) choices.push_back(r[l]);
    const bool all = for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
      return pi_prime.black().contains(Configuration(std::vector<Label>(pick.begin(), pick.end())));
    });
    if (!all) return false;
  }
  return true;
}

/// Every configuration mapping: each sorted white configuration of Π takes
/// each ordered white configuration of Π' in turn (mixed-radix counter).
bool oracle_witness_exists(const Problem& pi, const Problem& pi_prime) {
  const std::vector<Configuration> sources = pi.white().sorted_members();
  const auto images = ordered_white_images(pi_prime);
  if (images.empty()) return sources.empty();
  std::vector<std::size_t> pick(sources.size(), 0);
  while (true) {
    ConfigMapping mapping;
    for (std::size_t s = 0; s < sources.size(); ++s) mapping[sources[s]] = images[pick[s]];
    if (black_side_holds(pi, pi_prime, mapping)) return true;
    std::size_t i = 0;
    while (i < pick.size() && ++pick[i] == images.size()) pick[i++] = 0;
    if (i == pick.size()) return false;
  }
}

Problem random_small_problem(std::size_t alphabet, std::size_t dw, std::size_t db,
                             Rng& rng) {
  LabelRegistry reg;
  for (std::size_t l = 0; l < alphabet; ++l) reg.intern(std::string(1, char('A' + l)));
  Constraint white(dw), black(db);
  const auto fill = [&](Constraint& c, std::size_t d) {
    const double p = 0.2 + 0.7 * rng.uniform();
    for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
      if (rng.chance(p)) c.add(Configuration(std::vector<Label>(pick.begin(), pick.end())));
      return true;
    });
  };
  fill(white, dw);
  fill(black, db);
  return Problem("rand", std::move(reg), std::move(white), std::move(black));
}

TEST(RelaxationOracle, SearchesAgreeWithDefinitionalEnumeration) {
  // The witness enumeration is |images|^|white(Π)|; pairs above this cap are
  // redrawn so the oracle stays instant.
  constexpr double kMaxMappings = 20'000;
  int checked = 0, map_yes = 0, witness_yes = 0, witness_only = 0;
  for (std::uint64_t seed = 1; checked < 300; ++seed) {
    Rng rng(seed);
    const std::size_t dw = 1 + static_cast<std::size_t>(rng.below(3));
    const std::size_t db = 1 + static_cast<std::size_t>(rng.below(3));
    const Problem pi = random_small_problem(1 + rng.below(3), dw, db, rng);
    const Problem pi_prime = random_small_problem(1 + rng.below(3), dw, db, rng);
    const double mappings =
        std::pow(static_cast<double>(ordered_white_images(pi_prime).size()),
                 static_cast<double>(pi.white().size()));
    if (mappings > kMaxMappings) continue;
    ++checked;

    const bool want_map = oracle_label_map_exists(pi, pi_prime);
    const bool want_witness = oracle_witness_exists(pi, pi_prime);
    // A label map induces a configuration mapping.
    if (want_map) EXPECT_TRUE(want_witness) << "seed " << seed;
    map_yes += want_map;
    witness_yes += want_witness;
    witness_only += want_witness && !want_map;

    for (const std::size_t threads : {1u, 4u}) {
      RelaxationOptions options;
      options.node_budget = 0;
      options.threads = threads;
      const LabelMapResult by_map = find_relaxation_label_map(pi, pi_prime, options);
      EXPECT_EQ(by_map.verdict, want_map ? Verdict::kYes : Verdict::kNo)
          << "label map, seed " << seed << " threads " << threads;
      if (by_map.map) EXPECT_TRUE(check_relaxation_label_map(pi, pi_prime, *by_map.map));
      const WitnessResult by_witness = find_relaxation_witness(pi, pi_prime, options);
      EXPECT_EQ(by_witness.verdict, want_witness ? Verdict::kYes : Verdict::kNo)
          << "witness, seed " << seed << " threads " << threads;
      if (by_witness.mapping) {
        EXPECT_TRUE(check_relaxation_witness(pi, pi_prime, *by_witness.mapping))
            << "seed " << seed << " threads " << threads;
      }
    }
    if (HasFailure()) return;
  }
  // Both verdicts, and witnesses that no label map explains, must occur.
  EXPECT_GT(map_yes, 20);
  EXPECT_GT(checked - witness_yes, 20);
  EXPECT_GT(witness_only, 5);
}

// The witness search's black check (memoized per image multiset, deduped
// per trial, vacuous on an empty r(l)) against the definitional enumeration.
// Π's last label lies in no white configuration, so its r(·) stays empty and
// every black configuration holding it passes vacuously; every fourth draw
// gives Π' an empty C_B(Π').
TEST(RelaxationOracle, WitnessSearchAgreesWithEnumerationOnVacuousBlackChecks) {
  constexpr double kMaxMappings = 20'000;
  int checked = 0, witness_yes = 0, empty_black_yes = 0;
  for (std::uint64_t seed = 1; checked < 300; ++seed) {
    Rng rng(seed);
    const std::size_t dw = 1 + static_cast<std::size_t>(rng.below(3));
    const std::size_t db = 1 + static_cast<std::size_t>(rng.below(3));
    const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(3));
    const Problem drawn = random_small_problem(alphabet, dw, db, rng);
    const Label unused = static_cast<Label>(alphabet - 1);
    Constraint white(dw);
    for (const Configuration& c : drawn.white().members()) {
      if (std::find(c.labels().begin(), c.labels().end(), unused) == c.labels().end()) {
        white.add(c);
      }
    }
    const Problem pi("rand-unused", drawn.registry(), white, drawn.black());
    Problem pi_prime = random_small_problem(1 + rng.below(3), dw, db, rng);
    const bool empty_black = seed % 4 == 0;
    if (empty_black) {
      pi_prime = Problem("empty-black", pi_prime.registry(), pi_prime.white(), Constraint(db));
    }
    const double mappings =
        std::pow(static_cast<double>(ordered_white_images(pi_prime).size()),
                 static_cast<double>(pi.white().size()));
    if (mappings > kMaxMappings) continue;
    ++checked;

    const bool want = oracle_witness_exists(pi, pi_prime);
    witness_yes += want;
    empty_black_yes += want && empty_black && !pi.black().empty();
    for (const std::size_t threads : {1u, 4u}) {
      RelaxationOptions options;
      options.node_budget = 0;
      options.threads = threads;
      const WitnessResult got = find_relaxation_witness(pi, pi_prime, options);
      EXPECT_EQ(got.verdict, want ? Verdict::kYes : Verdict::kNo)
          << "seed " << seed << " threads " << threads;
      if (got.mapping) {
        EXPECT_TRUE(check_relaxation_witness(pi, pi_prime, *got.mapping))
            << "seed " << seed << " threads " << threads;
      }
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(witness_yes, 20);
  EXPECT_GT(checked - witness_yes, 20);
  // Only vacuous passes can satisfy an empty C_B(Π').
  EXPECT_GT(empty_black_yes, 5);
}

// The serial searches' node counts on the Lemma 4.5 chains: any change to
// the search kernels must visit exactly the same nodes in the same order.
TEST(RelaxationSearchSpace, SerialNodeCountsOnMatchingChainsArePinned) {
  RelaxationOptions serial;
  serial.node_budget = 0;
  serial.threads = 1;
  const auto re_of = [](const Problem& p) {
    auto re = round_eliminate(p);
    EXPECT_TRUE(re.has_value());
    return *re;
  };

  const Problem re7 = re_of(make_matching_problem(7, 1, 2));
  const WitnessResult w7 = find_relaxation_witness(re7, make_matching_problem(7, 3, 2), serial);
  EXPECT_EQ(w7.verdict, Verdict::kYes);
  EXPECT_EQ(w7.nodes, 28u);

  const std::vector<std::uint64_t> map_nodes = {175, 175, 8175};
  const std::vector<std::uint64_t> witness_nodes = {14, 17};
  for (std::size_t x = 0; x < map_nodes.size(); ++x) {
    const Problem re8 = re_of(make_matching_problem(8, x, 1));
    const Problem next = make_matching_problem(8, x + 1, 1);
    const LabelMapResult by_map = find_relaxation_label_map(re8, next, serial);
    EXPECT_EQ(by_map.nodes, map_nodes[x]) << "step " << x + 1;
    if (x < witness_nodes.size()) {
      const WitnessResult by_witness = find_relaxation_witness(re8, next, serial);
      EXPECT_EQ(by_witness.verdict, Verdict::kYes) << "step " << x + 1;
      EXPECT_EQ(by_witness.nodes, witness_nodes[x]) << "step " << x + 1;
    }
  }
}

// The case the ROADMAP quotes for the witness search's cost per node.
TEST(RelaxationSearchSpace, SerialWitnessNodeCountOnDelta10IsPinned) {
  RelaxationOptions serial;
  serial.node_budget = 0;
  serial.threads = 1;
  const auto re10 = round_eliminate(make_matching_problem(10, 1, 2));
  ASSERT_TRUE(re10.has_value());
  const WitnessResult w10 = find_relaxation_witness(*re10, make_matching_problem(10, 3, 2), serial);
  EXPECT_EQ(w10.verdict, Verdict::kYes);
  EXPECT_EQ(w10.nodes, 52u);
  ASSERT_TRUE(w10.mapping.has_value());
  EXPECT_TRUE(check_relaxation_witness(*re10, make_matching_problem(10, 3, 2), *w10.mapping));
}

// Wide black constraints get definitive answers: the witness search's only
// resource cap is the automaton's. Proper c-coloring relaxes to proper
// (c+1)-coloring, and a one-label Π does not relax to distinct pairs (r(A)
// x r(A) always holds a pair of equal labels).
TEST(RelaxationSearchSpace, WideBlackConstraintsGetDefinitiveAnswers) {
  LabelRegistry one;
  one.intern("A");
  Constraint white(2);
  white.add(Configuration{0, 0});
  Constraint black(2);
  black.add(Configuration{0, 0});
  const Problem pi("pi", one, white, black);

  for (const std::size_t threads : {1u, 4u}) {
    RelaxationOptions options;
    options.node_budget = 0;
    options.threads = threads;
    for (const std::size_t colors : {11u, 20u}) {
      const Problem coloring = make_proper_coloring_problem(2, colors);
      const Problem wider = make_proper_coloring_problem(2, colors + 1);
      const WitnessResult up = find_relaxation_witness(coloring, wider, options);
      EXPECT_EQ(up.verdict, Verdict::kYes) << colors << " colors, threads " << threads;
      ASSERT_TRUE(up.mapping.has_value());
      EXPECT_TRUE(check_relaxation_witness(coloring, wider, *up.mapping));
      EXPECT_EQ(find_relaxation_witness(pi, coloring, options).verdict, Verdict::kNo)
          << colors << " colors, threads " << threads;
    }
  }
}

// A search handed an already halted budget stops at its resource cap and
// never answers: Π relaxes to itself, so only the budget stops this one.
TEST(RelaxationSearchSpace, HaltedBudgetExhaustsTheWitnessSearch) {
  LabelRegistry one;
  one.intern("A");
  Constraint white(2);
  white.add(Configuration{0, 0});
  Constraint black(2);
  black.add(Configuration{0, 0});
  const Problem pi("pi", one, white, black);
  for (const std::size_t threads : {1u, 4u}) {
    RelaxationOptions options;
    options.node_budget = 0;
    options.threads = threads;
    ASSERT_EQ(find_relaxation_witness(pi, pi, options).verdict, Verdict::kYes);
    SearchBudget halted;
    halted.cancel();
    options.budget = &halted;
    EXPECT_EQ(find_relaxation_witness(pi, pi, options).verdict, Verdict::kExhausted)
        << "threads " << threads;
  }
}

// A Π' whose black constraint is too wide for the sub-multiset automaton's
// cap stops both searches at their resource-cap outcome.
TEST(RelaxationSearchSpace, AutomatonPastItsCapExhaustsBothSearches) {
  LabelRegistry one;
  one.intern("A");
  Constraint white(2);
  white.add(Configuration{0, 0});
  Constraint black(3);
  black.add(Configuration{0, 0, 0});
  const Problem pi("pi", one, white, black);

  LabelRegistry many;
  std::vector<Label> labels;
  for (int l = 0; l < 140; ++l) labels.push_back(many.intern("L" + std::to_string(l)));
  Constraint wide_white(2);
  wide_white.add_condensed({labels, labels});
  Constraint wide_black(3);
  wide_black.add_condensed({labels, labels, labels});
  const Problem pi_prime("pi-prime", many, wide_white, wide_black);

  EXPECT_EQ(find_relaxation_label_map(pi, pi_prime).verdict, Verdict::kExhausted);
  EXPECT_EQ(find_relaxation_witness(pi, pi_prime).verdict, Verdict::kExhausted);
}

}  // namespace
}  // namespace slocal
