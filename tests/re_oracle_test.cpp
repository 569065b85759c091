// Brute-force oracle for the round elimination half-steps R and R̄.
//
// Written from the definition alone (Appendix B), sharing nothing with the
// engine: no right-closed candidate filter, no sub-multiset automaton, no
// signature buckets, no witness seeding. For a hardened constraint C of
// degree d over Σ it enumerates every multiset of d non-empty subsets of Σ,
// keeps those whose every choice lies in C, and drops each one dominated by
// a different kept multiset (a permutation pairs every set with a
// superset). The new alphabet is the sets used by the survivors; the
// relaxed constraint is every multiset over that alphabet admitting at
// least one choice in the other constraint. Small sizes only: |Σ| <= 4 and
// degrees <= 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/formalism/canonical.hpp"
#include "src/re/round_elimination.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

using SetMultiset = std::vector<SmallBitset>;  // sorted by raw bits

/// Calls `fn` on every choice l_i ∈ sets[i], as a configuration, until it
/// returns false; true when every call returned true.
bool every_choice(const SetMultiset& sets,
                  const std::function<bool(const Configuration&)>& fn) {
  std::vector<std::vector<std::size_t>> choices;
  for (const SmallBitset s : sets) choices.push_back(s.indices());
  return for_each_choice(choices, [&](const std::vector<std::size_t>& pick) {
    return fn(Configuration(std::vector<Label>(pick.begin(), pick.end())));
  });
}

/// Does some permutation pair every set of `a` with a superset in `b`?
bool dominated_by(const SetMultiset& a, const SetMultiset& b) {
  std::vector<std::size_t> perm(b.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  do {
    bool all = true;
    for (std::size_t i = 0; i < a.size() && all; ++i) {
      all = b[perm[i]].contains(a[i]);
    }
    if (all) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

/// One half-step from the definition: `universal` is hardened, `existential`
/// relaxed. Returns the new alphabet (sorted by raw bits, label i denotes
/// alphabet[i]) and the two constraints over it.
struct OracleStep {
  std::vector<SmallBitset> alphabet;
  Constraint hardened;
  Constraint relaxed;
};

OracleStep oracle_half_step(const Constraint& universal, const Constraint& existential,
                            std::size_t alphabet_size) {
  std::vector<SmallBitset> subsets;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << alphabet_size); ++mask) {
    subsets.emplace_back(mask);
  }
  std::vector<SetMultiset> valid;
  for_each_multiset(subsets.size(), universal.degree(),
                    [&](const std::vector<std::size_t>& pick) {
                      SetMultiset sets;
                      for (const std::size_t p : pick) sets.push_back(subsets[p]);
                      if (every_choice(sets, [&](const Configuration& c) {
                            return universal.contains(c);
                          })) {
                        valid.push_back(std::move(sets));
                      }
                      return true;
                    });
  // A different dominating multiset is strictly larger in total set size,
  // which skips most pairs before the permutation test.
  const auto total = [](const SetMultiset& m) {
    std::size_t n = 0;
    for (const SmallBitset s : m) n += s.count();
    return n;
  };
  std::vector<SetMultiset> maximal;
  for (const SetMultiset& a : valid) {
    const bool dominated = std::any_of(valid.begin(), valid.end(), [&](const SetMultiset& b) {
      return total(b) > total(a) && dominated_by(a, b);
    });
    if (!dominated) maximal.push_back(a);
  }

  std::set<SmallBitset> used;
  for (const SetMultiset& m : maximal) used.insert(m.begin(), m.end());
  OracleStep out{std::vector<SmallBitset>(used.begin(), used.end()),
                 Constraint(universal.degree()), Constraint(existential.degree())};
  const auto label_of = [&](SmallBitset s) {
    return static_cast<Label>(std::find(out.alphabet.begin(), out.alphabet.end(), s) -
                              out.alphabet.begin());
  };
  for (const SetMultiset& m : maximal) {
    std::vector<Label> labels;
    for (const SmallBitset s : m) labels.push_back(label_of(s));
    out.hardened.add(Configuration(std::move(labels)));
  }
  for_each_multiset(out.alphabet.size(), existential.degree(),
                    [&](const std::vector<std::size_t>& pick) {
                      SetMultiset sets;
                      for (const std::size_t p : pick) sets.push_back(out.alphabet[p]);
                      if (!every_choice(sets, [&](const Configuration& c) {
                            return !existential.contains(c);
                          })) {
                        std::vector<Label> labels(pick.begin(), pick.end());
                        out.relaxed.add(Configuration(std::move(labels)));
                      }
                      return true;
                    });
  return out;
}

Problem oracle_problem(const OracleStep& step, bool universal_is_black) {
  LabelRegistry reg;
  for (std::size_t l = 0; l < step.alphabet.size(); ++l) {
    reg.intern("s" + std::to_string(l));
  }
  return universal_is_black
             ? Problem("oracle-R", std::move(reg), step.relaxed, step.hardened)
             : Problem("oracle-Rbar", std::move(reg), step.hardened, step.relaxed);
}

/// A random problem with |Σ| <= 4 and degrees <= 4; constraint densities
/// are drawn per problem so that both sparse and dense constraints occur.
std::optional<Problem> draw_problem(Rng& rng) {
  const std::size_t alphabet = 2 + static_cast<std::size_t>(rng.below(3));
  const std::size_t dw = 1 + static_cast<std::size_t>(rng.below(4));
  const std::size_t db = 1 + static_cast<std::size_t>(rng.below(4));
  LabelRegistry reg;
  for (std::size_t l = 0; l < alphabet; ++l) reg.intern(std::string(1, char('A' + l)));
  Constraint white(dw), black(db);
  const auto fill = [&](Constraint& c, std::size_t d) {
    const double p = 0.15 + 0.75 * rng.uniform();
    for_each_multiset(alphabet, d, [&](const std::vector<std::size_t>& pick) {
      if (rng.chance(p)) c.add(Configuration(std::vector<Label>(pick.begin(), pick.end())));
      return true;
    });
  };
  fill(white, dw);
  fill(black, db);
  if (white.empty() || black.empty()) return std::nullopt;
  return Problem("oracle-input", std::move(reg), std::move(white), std::move(black));
}

/// Diffs one half-step at threads 1 and 4 against the oracle. Both sides
/// number the new labels by the raw bits of their sets, so the canonical
/// forms agree exactly when the label meanings and the constraints are
/// equal label for label, which is what is compared (it skips the
/// canonicalization of highly symmetric outputs). Returns whether the
/// hardening produced a set of two or more labels.
bool expect_matches_oracle(const Problem& pi, bool universal_is_black, std::uint64_t seed) {
  const OracleStep oracle = universal_is_black
                                ? oracle_half_step(pi.black(), pi.white(), pi.alphabet_size())
                                : oracle_half_step(pi.white(), pi.black(), pi.alphabet_size());
  const Problem expected = oracle_problem(oracle, universal_is_black);
  for (const std::size_t threads : {1u, 4u}) {
    REOptions options;
    options.threads = threads;
    const auto step = universal_is_black ? apply_R(pi, options) : apply_Rbar(pi, options);
    EXPECT_TRUE(step.has_value()) << "seed " << seed << " threads " << threads;
    if (!step) continue;
    EXPECT_EQ(step->label_meaning, oracle.alphabet)
        << (universal_is_black ? "R" : "Rbar") << " seed " << seed << " threads " << threads;
    EXPECT_TRUE(same_constraints(step->problem, expected))
        << (universal_is_black ? "R" : "Rbar") << " seed " << seed << " threads " << threads
        << "\ninput:\n"
        << pi.to_string() << "engine:\n"
        << step->problem.to_string() << "oracle:\n"
        << expected.to_string();
  }
  return std::any_of(oracle.alphabet.begin(), oracle.alphabet.end(),
                     [](SmallBitset set) { return set.count() >= 2; });
}

TEST(REOracle, HalfStepsMatchBruteForceOnSeededRandomProblems) {
  int checked = 0;
  int nontrivial = 0;
  for (std::uint64_t seed = 1; checked < 200; ++seed) {
    Rng rng(seed);
    const auto pi = draw_problem(rng);
    if (!pi) continue;
    ++checked;
    nontrivial += expect_matches_oracle(*pi, /*universal_is_black=*/true, seed);
    nontrivial += expect_matches_oracle(*pi, /*universal_is_black=*/false, seed);
    if (HasFailure()) return;
  }
  // The corpus must exercise real hardening, not only singleton label sets.
  EXPECT_GT(nontrivial, 100);
}

TEST(REOracle, RoundEliminateEqualsRbarOfRFromTheDefinition) {
  // The full step on inputs whose first half keeps |Σ| <= 4, so the oracle
  // can also run the second half.
  int checked = 0;
  for (std::uint64_t seed = 1000; checked < 40 && seed < 5000; ++seed) {
    Rng rng(seed);
    const auto pi = draw_problem(rng);
    if (!pi) continue;
    const OracleStep first = oracle_half_step(pi->black(), pi->white(), pi->alphabet_size());
    if (first.alphabet.empty() || first.alphabet.size() > 4) continue;
    const Problem mid = oracle_problem(first, /*universal_is_black=*/true);
    const OracleStep second = oracle_half_step(mid.white(), mid.black(), mid.alphabet_size());
    const Problem expected = drop_unused_labels(oracle_problem(second, false));
    for (const std::size_t threads : {1u, 4u}) {
      REOptions options;
      options.threads = threads;
      const auto re = round_eliminate(*pi, options);
      ASSERT_TRUE(re.has_value()) << "seed " << seed;
      EXPECT_TRUE(same_constraints(canonicalize(*re).problem, canonicalize(expected).problem))
          << "seed " << seed << " threads " << threads;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 40);
}

}  // namespace
}  // namespace slocal
