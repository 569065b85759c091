#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "src/cert/drat.hpp"
#include "src/sat/solver.hpp"
#include "src/util/budget.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

Lit pos(Var v) { return Lit::positive(v); }
Lit neg(Var v) { return Lit::negative(v); }

TEST(Sat, EmptyFormulaSat) {
  SatSolver s;
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

TEST(Sat, SingleUnit) {
  SatSolver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  EXPECT_EQ(s.solve(), SatResult::kSat);
  EXPECT_TRUE(s.value(a));
}

TEST(Sat, ContradictoryUnits) {
  SatSolver s;
  const Var a = s.new_var();
  s.add_clause({pos(a)});
  s.add_clause({neg(a)});
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(Sat, EmptyClauseUnsat) {
  SatSolver s;
  s.new_var();
  s.add_clause({});
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(Sat, TautologyIgnored) {
  SatSolver s;
  const Var a = s.new_var();
  s.add_clause({pos(a), neg(a)});
  EXPECT_EQ(s.solve(), SatResult::kSat);
}

TEST(Sat, ImplicationChainPropagates) {
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause({neg(v[i]), pos(v[i + 1])});
  s.add_clause({pos(v[0])});
  EXPECT_EQ(s.solve(), SatResult::kSat);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.value(v[i]));
}

TEST(Sat, XorChainSat) {
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  // v0 xor v1, v1 xor v2, ... (each as 2 clauses); always satisfiable.
  for (int i = 0; i + 1 < 12; ++i) {
    s.add_clause({pos(v[i]), pos(v[i + 1])});
    s.add_clause({neg(v[i]), neg(v[i + 1])});
  }
  EXPECT_EQ(s.solve(), SatResult::kSat);
  for (int i = 0; i + 1 < 12; ++i) EXPECT_NE(s.value(v[i]), s.value(v[i + 1]));
}

/// Adds the pigeonhole principle PHP(n+1, n) to `s`: n+1 pigeons, n holes —
/// UNSAT and requires real conflict-driven search.
void add_pigeonhole(SatSolver& s, std::size_t holes) {
  const std::size_t pigeons = holes + 1;
  std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
  for (auto& row : x) {
    for (auto& var : row) var = s.new_var();
  }
  for (std::size_t p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (std::size_t h = 0; h < holes; ++h) clause.push_back(pos(x[p][h]));
    s.add_clause(clause);
  }
  for (std::size_t h = 0; h < holes; ++h) {
    for (std::size_t p1 = 0; p1 < pigeons; ++p1) {
      for (std::size_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(x[p1][h]), neg(x[p2][h])});
      }
    }
  }
}

TEST(Sat, PigeonholeSmall) {
  SatSolver s;
  add_pigeonhole(s, 4);
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(Sat, PigeonholeMedium) {
  SatSolver s;
  add_pigeonhole(s, 6);
  EXPECT_EQ(s.solve(), SatResult::kUnsat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 9);
  EXPECT_EQ(s.solve(/*conflict_budget=*/5), SatResult::kUnknown);
}

/// Brute-force evaluator used to cross-check the CDCL solver.
bool brute_force_sat(std::size_t num_vars,
                     const std::vector<std::vector<Lit>>& clauses) {
  for (std::uint32_t assignment = 0; assignment < (1u << num_vars); ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (const Lit l : clause) {
        const bool value = (assignment >> l.var()) & 1;
        if (value != l.negated()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(Sat, RandomThreeSatAgreesWithBruteForce) {
  Rng rng(2026);
  for (int instance = 0; instance < 200; ++instance) {
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(6));  // 5..10
    const std::size_t num_clauses = static_cast<std::size_t>(
        static_cast<double>(num_vars) * (3.0 + rng.uniform() * 2.0));
    std::vector<std::vector<Lit>> clauses;
    SatSolver s;
    std::vector<Var> vars;
    for (std::size_t v = 0; v < num_vars; ++v) vars.push_back(s.new_var());
    for (std::size_t c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        const Var v = vars[rng.below(num_vars)];
        clause.push_back(rng.chance(0.5) ? pos(v) : neg(v));
      }
      clauses.push_back(clause);
      s.add_clause(clause);
    }
    const bool expected = brute_force_sat(num_vars, clauses);
    const SatResult got = s.solve();
    EXPECT_EQ(got, expected ? SatResult::kSat : SatResult::kUnsat)
        << "instance " << instance;
    if (got == SatResult::kSat) {
      // The model must actually satisfy the formula.
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit l : clause) any = any || (s.value(l.var()) != l.negated());
        EXPECT_TRUE(any);
      }
    }
  }
}

TEST(Sat, StatsAreTracked) {
  SatSolver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({pos(a), pos(b)});
  s.add_clause({neg(a), pos(b)});
  s.add_clause({pos(a), neg(b)});
  EXPECT_EQ(s.solve(), SatResult::kSat);
  EXPECT_GT(s.decisions() + s.propagations(), 0u);
}

// ---------------------------------------------------------------------------
// Metamorphic properties: transformations with a known effect on the verdict,
// checked over seeded random instances. These guard exactly the invariants
// the incremental lift sweep leans on (clause addition between solves,
// assumptions-as-removable-units, order independence).
// ---------------------------------------------------------------------------

/// A random k-SAT instance over fresh variables of `s`.
std::vector<std::vector<Lit>> random_instance(SatSolver& s, Rng& rng,
                                              std::size_t num_vars,
                                              std::size_t num_clauses) {
  std::vector<Var> vars;
  for (std::size_t v = 0; v < num_vars; ++v) vars.push_back(s.new_var());
  std::vector<std::vector<Lit>> clauses;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    const std::size_t width = 2 + static_cast<std::size_t>(rng.below(2));
    for (std::size_t k = 0; k < width; ++k) {
      const Var v = vars[rng.below(num_vars)];
      clause.push_back(rng.chance(0.5) ? pos(v) : neg(v));
    }
    clauses.push_back(clause);
    s.add_clause(clause);
  }
  return clauses;
}

TEST(SatMetamorphic, AddingModelSatisfiedClausesNeverFlipsToUnsat) {
  Rng rng(41);
  for (int instance = 0; instance < 100; ++instance) {
    SatSolver s;
    const std::size_t num_vars = 6 + static_cast<std::size_t>(rng.below(5));
    random_instance(s, rng, num_vars, num_vars * 3);
    if (s.solve() != SatResult::kSat) continue;
    std::vector<bool> model;
    for (Var v = 0; v < num_vars; ++v) model.push_back(s.value(v));
    // Any clause containing one model-true literal keeps the model a model,
    // so satisfiability must survive adding a batch of them mid-stream.
    for (int extra = 0; extra < 20; ++extra) {
      std::vector<Lit> clause;
      const Var anchor = static_cast<Var>(rng.below(num_vars));
      clause.push_back(model[anchor] ? pos(anchor) : neg(anchor));
      for (int k = 0; k < 2; ++k) {
        const Var v = static_cast<Var>(rng.below(num_vars));
        clause.push_back(rng.chance(0.5) ? pos(v) : neg(v));
      }
      rng.shuffle(clause);
      s.add_clause(std::move(clause));
    }
    EXPECT_EQ(s.solve(), SatResult::kSat) << "instance " << instance;
  }
}

TEST(SatMetamorphic, ClauseAndVariablePermutationPreservesVerdict) {
  Rng rng(42);
  for (int instance = 0; instance < 100; ++instance) {
    SatSolver original;
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(6));
    auto clauses = random_instance(original, rng, num_vars, num_vars * 4);
    const SatResult expected = original.solve();
    ASSERT_NE(expected, SatResult::kUnknown);

    // Rename variables by a random permutation, shuffle clause order and
    // literal order within each clause: an isomorphic formula.
    std::vector<Var> perm(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v) perm[v] = static_cast<Var>(v);
    rng.shuffle(perm);
    SatSolver renamed;
    for (std::size_t v = 0; v < num_vars; ++v) renamed.new_var();
    rng.shuffle(clauses);
    for (auto& clause : clauses) {
      rng.shuffle(clause);
      std::vector<Lit> mapped;
      for (const Lit l : clause) {
        mapped.push_back(l.negated() ? neg(perm[l.var()]) : pos(perm[l.var()]));
      }
      renamed.add_clause(std::move(mapped));
    }
    EXPECT_EQ(renamed.solve(), expected) << "instance " << instance;
  }
}

TEST(SatMetamorphic, AssumptionsAreEquivalentToUnitClauses) {
  Rng rng(43);
  for (int instance = 0; instance < 100; ++instance) {
    SatSolver assumed;
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(6));
    const auto clauses = random_instance(assumed, rng, num_vars, num_vars * 3);
    const SatResult base = assumed.solve();
    ASSERT_NE(base, SatResult::kUnknown);
    if (base == SatResult::kUnsat) continue;  // no clause additions after that

    std::vector<Lit> assumptions;
    for (std::size_t k = 0, n = 1 + rng.below(4); k < n; ++k) {
      const Var v = static_cast<Var>(rng.below(num_vars));
      assumptions.push_back(rng.chance(0.5) ? pos(v) : neg(v));
    }

    const SatResult under = assumed.solve_under_assumptions(assumptions);
    ASSERT_NE(under, SatResult::kUnknown);

    // Mirror solver: the same formula with the assumptions as hard units.
    SatSolver units;
    for (std::size_t v = 0; v < num_vars; ++v) units.new_var();
    for (const auto& clause : clauses) units.add_clause(clause);
    for (const Lit a : assumptions) units.add_clause({a});
    EXPECT_EQ(units.solve(), under) << "instance " << instance;

    if (under == SatResult::kUnsat) {
      // The failed-assumption core must be a subset of the assumptions and
      // must refute the formula on its own when re-added as units.
      SatSolver core_check;
      for (std::size_t v = 0; v < num_vars; ++v) core_check.new_var();
      for (const auto& clause : clauses) core_check.add_clause(clause);
      for (const Lit c : assumed.failed_assumptions()) {
        bool found = false;
        for (const Lit a : assumptions) found = found || a == c;
        EXPECT_TRUE(found) << "core literal outside the assumptions";
        core_check.add_clause({c});
      }
      EXPECT_EQ(core_check.solve(), SatResult::kUnsat) << "instance " << instance;
    }

    // Assumptions were not committed: the solver must still report the
    // base formula satisfiable afterwards.
    EXPECT_EQ(assumed.solve(), SatResult::kSat) << "instance " << instance;
  }
}

TEST(Sat, MinimizeCoreDropsRedundantAssumptions) {
  // Only a and b conflict; c and d are irrelevant, yet the first-found core
  // may include them. Deletion-based minimization must strip the padding.
  SatSolver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var(), d = s.new_var();
  s.add_clause({neg(a), neg(b)});
  const std::vector<Lit> assumptions = {pos(c), pos(a), pos(d), pos(b)};
  ASSERT_EQ(s.solve_under_assumptions(assumptions), SatResult::kUnsat);
  s.minimize_core();
  const auto core = s.failed_assumptions();
  ASSERT_EQ(core.size(), 2u);
  for (const Lit l : core) {
    EXPECT_TRUE(l == pos(a) || l == pos(b)) << "unexpected core literal";
  }
}

TEST(Sat, MinimizedCoreStaysUnsatAndShrinksOnlyToSubsets) {
  Rng rng(45);
  int unsat_instances = 0;
  for (int instance = 0; instance < 120; ++instance) {
    SatSolver s;
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(6));
    const auto clauses = random_instance(s, rng, num_vars, num_vars * 3);
    if (s.solve() != SatResult::kSat) continue;  // want assumption-driven cores

    std::vector<Lit> assumptions;
    for (std::size_t v = 0; v < num_vars; ++v) {
      assumptions.push_back(rng.chance(0.5) ? pos(static_cast<Var>(v))
                                            : neg(static_cast<Var>(v)));
    }
    if (s.solve_under_assumptions(assumptions) != SatResult::kUnsat) continue;
    ++unsat_instances;

    const std::vector<Lit> original(s.failed_assumptions().begin(),
                                    s.failed_assumptions().end());
    s.minimize_core();
    const std::vector<Lit> minimized(s.failed_assumptions().begin(),
                                     s.failed_assumptions().end());

    EXPECT_LE(minimized.size(), original.size());
    for (const Lit m : minimized) {
      bool in_original = false;
      for (const Lit o : original) in_original = in_original || o == m;
      EXPECT_TRUE(in_original) << "minimized core is not a subset";
    }

    // The minimized core must still refute the formula on its own.
    SatSolver check;
    for (std::size_t v = 0; v < num_vars; ++v) check.new_var();
    for (const auto& clause : clauses) check.add_clause(clause);
    for (const Lit m : minimized) check.add_clause({m});
    EXPECT_EQ(check.solve(), SatResult::kUnsat) << "instance " << instance;

    // Minimization must not poison later solves: the base formula is SAT.
    EXPECT_EQ(s.solve(), SatResult::kSat) << "instance " << instance;
  }
  EXPECT_GE(unsat_instances, 10) << "seed produced too few UNSAT cores";
}

TEST(Sat, MinimizeCoreHonorsProbeBudget) {
  // With a 1-conflict probe cap every probe returns kUnknown, so the core
  // must be left exactly as found (kUnknown keeps the literal).
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.new_var());
  // Pairwise conflicts chained so probes need at least some search.
  for (int i = 0; i + 1 < 8; ++i) s.add_clause({neg(v[i]), neg(v[i + 1])});
  std::vector<Lit> assumptions;
  for (int i = 0; i < 8; ++i) assumptions.push_back(pos(v[i]));
  ASSERT_EQ(s.solve_under_assumptions(assumptions), SatResult::kUnsat);
  const std::size_t before = s.failed_assumptions().size();
  SearchBudget exhausted_budget;
  exhausted_budget.set_node_limit(1);
  exhausted_budget.charge(2);  // trips the node limit: budget is now halted
  const std::size_t dropped = s.minimize_core(/*per_probe_conflicts=*/0,
                                              &exhausted_budget);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(s.failed_assumptions().size(), before);
}

TEST(SatMetamorphic, IncrementalSolveMatchesFromScratchAtEveryPrefix) {
  Rng rng(44);
  for (int instance = 0; instance < 40; ++instance) {
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(5));
    SatSolver incremental;
    std::vector<Var> vars;
    for (std::size_t v = 0; v < num_vars; ++v) vars.push_back(incremental.new_var());
    std::vector<std::vector<Lit>> so_far;
    for (int chunk = 0; chunk < 6; ++chunk) {
      for (std::size_t c = 0; c < num_vars; ++c) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
          const Var v = vars[rng.below(num_vars)];
          clause.push_back(rng.chance(0.5) ? pos(v) : neg(v));
        }
        so_far.push_back(clause);
        incremental.add_clause(clause);
      }
      // The incremental solver (with its retained learned clauses) must
      // agree with a fresh solver and with brute force at every prefix.
      SatSolver fresh;
      for (std::size_t v = 0; v < num_vars; ++v) fresh.new_var();
      for (const auto& clause : so_far) fresh.add_clause(clause);
      const SatResult got = incremental.solve();
      EXPECT_EQ(got, fresh.solve()) << "instance " << instance << " chunk " << chunk;
      const bool expected = brute_force_sat(num_vars, so_far);
      EXPECT_EQ(got, expected ? SatResult::kSat : SatResult::kUnsat)
          << "instance " << instance << " chunk " << chunk;
      if (got == SatResult::kUnsat) break;  // no clause additions after that
    }
  }
}

// ---------------------------------------------------------------------------
// Phase saving: the solver remembers branch polarities across solves.
// ---------------------------------------------------------------------------

TEST(Sat, PhasesReflectModelAfterSatSolve) {
  // No root units here: every variable is decided or propagated above level
  // zero, so the final backtrack phase-saves the full model — including the
  // propagated (not just decided) polarities. Each pair (v[i] ∨ v[i+1]) has
  // one variable decided negative first and the other propagated positive.
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 6; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 6; i += 2) s.add_clause({pos(v[i]), pos(v[i + 1])});
  ASSERT_EQ(s.solve(), SatResult::kSat);
  const auto& phases = s.phases();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(phases[v[i]] == 0, s.value(v[i]))
        << "phases() disagrees with the model at variable " << i;
  }
  for (int i = 0; i < 6; i += 2) {
    EXPECT_NE(s.value(v[i]), s.value(v[i + 1])) << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// DRAT logging: the independent RUP checker (src/cert/drat.cpp) must accept
// the full refutation trace of every UNSAT solve.
// ---------------------------------------------------------------------------

cert::DratProof to_drat(const SatProof& proof) {
  cert::DratProof out;
  out.input_clauses = proof.input_clauses;
  out.steps.reserve(proof.steps.size());
  for (const auto& step : proof.steps) {
    out.steps.push_back(cert::DratStep{step.is_delete, step.lits});
  }
  return out;
}

TEST(Sat, DratRefutationsOfRandomFormulasCheck) {
  Rng rng(51);
  int refutations = 0;
  for (int instance = 0; instance < 60 && refutations < 15; ++instance) {
    const std::size_t num_vars = 5 + static_cast<std::size_t>(rng.below(4));
    SatSolver s;
    s.start_proof();
    random_instance(s, rng, num_vars, num_vars * 5);
    if (s.solve() != SatResult::kUnsat) continue;
    ++refutations;
    const cert::DratResult checked =
        cert::check_drat(to_drat(s.proof()), {}, num_vars);
    EXPECT_TRUE(checked.valid) << "instance " << instance << ": " << checked.message;
  }
  EXPECT_GE(refutations, 10) << "seed produced too few refutations";
}

TEST(Sat, DratPigeonholeRefutationChecks) {
  // A structured instance with a deep CDCL proof (learned clauses, restarts).
  SatSolver s;
  s.start_proof();
  add_pigeonhole(s, 4);
  ASSERT_EQ(s.solve(), SatResult::kUnsat);
  const cert::DratResult checked =
      cert::check_drat(to_drat(s.proof()), {}, s.var_count());
  EXPECT_TRUE(checked.valid) << checked.message;
}

TEST(Sat, MinimizeCoreStatsExposeProbeWork) {
  // The ternary clause can hand ¬b a reason that mentions c, padding the
  // first-found core; only {a, b} is needed (the binary clause). Whatever
  // the propagation order found, minimization must land on a 2-literal core
  // and the SatStats accounting must reflect every deletion probe.
  SatSolver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({neg(c), neg(a), neg(b)});
  s.add_clause({neg(a), neg(b)});
  const std::vector<Lit> assumptions = {pos(c), pos(a), pos(b)};
  ASSERT_EQ(s.solve_under_assumptions(assumptions), SatResult::kUnsat);
  const std::size_t dropped = s.minimize_core();
  EXPECT_EQ(s.failed_assumptions().size(), 2u);
  for (const Lit l : s.failed_assumptions()) {
    EXPECT_TRUE(l == pos(a) || l == pos(b)) << "unexpected core literal";
  }
  // One budgeted re-solve per surviving or dropped literal, all counted.
  EXPECT_GE(s.stats().core_probe_solves, 2u);
  EXPECT_EQ(s.stats().core_literals_removed, dropped);
}

// ---------------------------------------------------------------------------
// Golden decisions: lift certificates embed the solver's DRAT proofs byte for
// byte, so the branching order is part of its contract. Each case pins the
// verdict, the decision / conflict / propagation counts and a hash of the
// proof steps of a seeded run; any change to which variable is picked, or
// when, moves at least one of them.
// ---------------------------------------------------------------------------

/// FNV-1a over a proof's steps: per step its delete flag, each DIMACS
/// literal and a 0 terminator, every word as four little-endian bytes.
std::uint64_t proof_hash(const SatProof& proof) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& step : proof.steps) {
    eat(step.is_delete ? 1u : 0u);
    for (const std::int32_t l : step.lits) eat(static_cast<std::uint32_t>(l));
    eat(0u);
  }
  return h;
}

struct GoldenSolve {
  SatResult verdict;
  std::uint64_t decisions;
  std::uint64_t conflicts;
  std::uint64_t propagations;
  std::uint64_t proof_hash;
  bool operator==(const GoldenSolve&) const = default;
};

/// Prints in the tables' own syntax, so a failure message is a table row.
std::ostream& operator<<(std::ostream& os, const GoldenSolve& g) {
  const char* verdict = g.verdict == SatResult::kSat     ? "kSat"
                        : g.verdict == SatResult::kUnsat ? "kUnsat"
                                                         : "kUnknown";
  return os << "{" << verdict << ", " << g.decisions << ", " << g.conflicts << ", "
            << g.propagations << ", 0x" << std::hex << g.proof_hash << std::dec
            << "ULL}";
}

GoldenSolve observe(const SatSolver& s, SatResult verdict) {
  return {verdict, s.decisions(), s.conflicts(), s.propagations(),
          proof_hash(s.proof())};
}

/// `num_clauses` random clauses over three distinct variables among `vars`.
void add_random_3sat(SatSolver& s, Rng& rng, const std::vector<Var>& vars,
                     std::size_t num_clauses, std::vector<Lit> guard = {}) {
  for (std::size_t c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause = guard;
    std::vector<Var> picked;
    while (picked.size() < 3) {
      const Var v = vars[rng.below(vars.size())];
      if (std::find(picked.begin(), picked.end(), v) != picked.end()) continue;
      picked.push_back(v);
      clause.push_back(rng.chance(0.5) ? pos(v) : neg(v));
    }
    s.add_clause(std::move(clause));
  }
}

std::vector<Var> fresh_vars(SatSolver& s, std::size_t n) {
  std::vector<Var> vars;
  for (std::size_t i = 0; i < n; ++i) vars.push_back(s.new_var());
  return vars;
}

/// Seed `seed` of the random corpus: 20..60 variables at a clause/variable
/// ratio of 3.9..4.7, around the 3-SAT threshold, so both verdicts occur.
GoldenSolve solve_corpus_formula(std::uint64_t seed) {
  Rng rng(seed);
  SatSolver s;
  s.start_proof();
  const std::vector<Var> vars = fresh_vars(s, 20 + rng.below(41));
  const double ratio = 3.9 + 0.8 * rng.uniform();
  add_random_3sat(s, rng, vars,
                  static_cast<std::size_t>(ratio * static_cast<double>(vars.size())));
  return observe(s, s.solve());
}

struct GoldenStep {
  GoldenSolve solve;
  std::string core;  // "<found>/<minimized>" literal codes; empty unless kUnsat
  bool operator==(const GoldenStep&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenStep& g) {
  return os << "{" << g.solve << ", \"" << g.core << "\"}";
}

std::string lit_codes(std::span<const Lit> lits) {
  std::string out;
  for (const Lit l : lits) {
    if (!out.empty()) out += ',';
    out += std::to_string(l.code());
  }
  return out;
}

/// One solver driven incrementally: selector-guarded clause groups, solves
/// under random selector subsets, minimize_core() after every kUnsat, and a
/// few more guarded clauses between solves.
std::vector<GoldenStep> run_incremental_sequence() {
  Rng rng(7);
  SatSolver s;
  s.start_proof();
  const std::vector<Var> vars = fresh_vars(s, 40);
  const std::vector<Var> selectors = fresh_vars(s, 10);
  add_random_3sat(s, rng, vars, 100);
  for (const Var sel : selectors) add_random_3sat(s, rng, vars, 18, {neg(sel)});
  std::vector<GoldenStep> steps;
  for (int round = 0; round < 12; ++round) {
    std::vector<Lit> assumptions;
    for (const Var sel : selectors) {
      if (rng.chance(0.5)) assumptions.push_back(pos(sel));
    }
    const SatResult verdict = s.solve_under_assumptions(assumptions);
    std::string core;
    if (verdict == SatResult::kUnsat) {
      core = lit_codes(s.failed_assumptions()) + "/";
      s.minimize_core();
      core += lit_codes(s.failed_assumptions());
    }
    steps.push_back({observe(s, verdict), core});
    add_random_3sat(s, rng, vars, 3, {neg(selectors[rng.below(selectors.size())])});
  }
  return steps;
}

/// One encoded instance, copied per branch seed the way the portfolio races
/// it: seeds 1..4 on fresh copies, then seeds 1..4 on copies of a solver
/// whose activities a budgeted solve already moved. The last entry is that
/// budgeted solve itself.
std::vector<GoldenSolve> run_branch_seed_copies() {
  Rng rng(11);
  SatSolver base;
  base.start_proof();
  const std::vector<Var> vars = fresh_vars(base, 70);
  add_random_3sat(base, rng, vars, 300);
  std::vector<GoldenSolve> out;
  const auto solve_seeded_copies = [&] {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SatSolver copy = base;
      copy.set_branch_seed(seed);
      out.push_back(observe(copy, copy.solve()));
    }
  };
  solve_seeded_copies();
  const SatResult budgeted = base.solve(/*conflict_budget=*/3);
  solve_seeded_copies();
  out.push_back(observe(base, budgeted));
  return out;
}

/// A formula that takes well over 4,500 conflicts in one solve: past that
/// many decays the activity increment exceeds 1e100 and every activity is
/// rescaled, which can turn distinct activities into ties.
GoldenSolve solve_rescale_formula() {
  Rng rng(2);
  SatSolver s;
  s.start_proof();
  const std::vector<Var> vars = fresh_vars(s, 200);
  add_random_3sat(s, rng, vars, 880);
  return observe(s, s.solve());
}

// The values were taken from the solver that picked each decision by a linear
// scan over all variables; the order heap must reproduce every one of them.
using enum SatResult;

constexpr GoldenSolve kGoldenCorpus[] = {
    {kSat, 16, 13, 124, 0xe6222f2c4b1a0958ULL},
    {kUnsat, 72, 61, 759, 0x48da32558d951ed0ULL},
    {kSat, 11, 7, 91, 0xcd9704185f9b25c2ULL},
    {kUnsat, 59, 55, 707, 0x92ac2b2f4f436ed2ULL},
    {kSat, 11, 6, 67, 0x38fa48be2c1f7bebULL},
    {kSat, 26, 23, 269, 0x3b84652107a33bcfULL},
    {kSat, 43, 29, 446, 0xa094f401b1aff56ULL},
    {kSat, 14, 5, 125, 0x483babdb21ca1420ULL},
    {kSat, 53, 38, 544, 0x1cca87a05cbeedbcULL},
    {kSat, 24, 17, 184, 0xa0fbe3499130e81fULL},
    {kSat, 10, 0, 25, 0xcbf29ce484222325ULL},
    {kUnsat, 18, 14, 148, 0x720c56a162cf4608ULL},
    {kUnsat, 49, 45, 508, 0x7def56feb9b8407bULL},
    {kSat, 49, 37, 459, 0x36089b4db088c3a0ULL},
    {kUnsat, 103, 86, 1013, 0xf96efcb06099ff6fULL},
    {kUnsat, 33, 32, 396, 0x67d397868b93511dULL},
    {kUnsat, 15, 14, 118, 0x88f2c861c45bcf02ULL},
    {kUnsat, 14, 14, 126, 0x319a13ad14a2f6cfULL},
    {kSat, 25, 21, 207, 0xb50631d21b0400f6ULL},
    {kSat, 77, 51, 893, 0xc4ffd1602ea16040ULL},
    {kUnsat, 21, 18, 182, 0xf683f1dda0a62d9fULL},
    {kSat, 6, 2, 37, 0xc3a08e8e72909a1eULL},
    {kSat, 17, 10, 98, 0x3e4fffa252786ebcULL},
    {kUnsat, 35, 35, 474, 0x2639258ea06ac6f8ULL},
    {kSat, 16, 7, 85, 0x4249885bc723a62ULL},
    {kSat, 104, 81, 1368, 0x29eadb92310c9ef0ULL},
    {kUnsat, 58, 48, 796, 0x8fb9da2bc9d4c4ffULL},
    {kUnsat, 186, 155, 2012, 0x598d33013bc33229ULL},
    {kSat, 10, 0, 33, 0xcbf29ce484222325ULL},
    {kSat, 10, 5, 78, 0x3f870c1901d5be53ULL},
    {kUnsat, 53, 46, 707, 0xc4c28b042ff3f5e7ULL},
    {kUnsat, 74, 63, 815, 0x48bbcf54d81d0b60ULL},
    {kUnsat, 110, 96, 1520, 0x33499afc74340bb4ULL},
    {kSat, 29, 20, 259, 0xe5f6b84a4c51fc84ULL},
    {kSat, 32, 24, 300, 0xcf9b09b8da6833adULL},
    {kUnsat, 50, 47, 590, 0xe27604ad3f88fc53ULL},
    {kSat, 21, 14, 181, 0xc95cad001a11b421ULL},
    {kSat, 10, 2, 62, 0xcaf9f39b356945ccULL},
    {kSat, 64, 49, 646, 0x925b4920270265e1ULL},
    {kSat, 49, 31, 476, 0x8da3647951ae457cULL},
    {kSat, 12, 2, 64, 0xffa4e85f770ca653ULL},
    {kUnsat, 31, 27, 257, 0x8a46d1b01f1330f2ULL},
    {kSat, 26, 19, 156, 0x1317a0ec595a3042ULL},
    {kUnsat, 61, 54, 810, 0xfba1f0232a34378fULL},
    {kSat, 27, 17, 254, 0x27182983773002b9ULL},
    {kSat, 55, 37, 617, 0xd00ccfe3e8820982ULL},
    {kSat, 6, 3, 43, 0x422ebb5333df0526ULL},
    {kSat, 16, 3, 75, 0xd4cb1e6272d81911ULL},
    {kSat, 13, 8, 62, 0xbceed9bab0df2a8eULL},
    {kSat, 30, 16, 318, 0x820644b4fbe677c5ULL},
};

constexpr GoldenSolve kGoldenSeedCopies[] = {
    {kUnsat, 169, 149, 2739, 0xa562b93a0a85de02ULL},
    {kUnsat, 223, 199, 3588, 0x8449d2cd2b1d982eULL},
    {kUnsat, 200, 171, 3079, 0x4207e29fb9632c88ULL},
    {kUnsat, 134, 117, 2159, 0x1e2bd5d9e4fd3e40ULL},
    {kUnsat, 150, 121, 2475, 0x3372d7301bd317a9ULL},
    {kUnsat, 131, 99, 1963, 0x5c08534732b5a8e7ULL},
    {kUnsat, 128, 103, 1826, 0xe6d3f3faf2d7f7fULL},
    {kUnsat, 131, 100, 1875, 0x996adb0701558822ULL},
    {kUnknown, 18, 4, 77, 0x778e0f568277712cULL},
};

constexpr GoldenSolve kGoldenRescale = {kUnsat, 9957, 8403, 315553, 0xbc97c4a08bd2d602ULL};

const GoldenStep kGoldenIncremental[] = {
    {{kSat, 24, 15, 242, 0x4e8dc7b789b4732cULL}, ""},
    {{kUnsat, 183, 121, 1817, 0xd078495151f6f2b8ULL}, "98,94,92,90,88,82/94,92,90,88"},
    {{kSat, 189, 121, 1867, 0xd078495151f6f2b8ULL}, ""},
    {{kUnsat, 274, 159, 2629, 0x621da907c2538be0ULL}, "98,94,92,90,86,80/94,92,90,86"},
    {{kSat, 289, 165, 2783, 0x8c28dc075c77f376ULL}, ""},
    {{kSat, 306, 165, 2833, 0x8c28dc075c77f376ULL}, ""},
    {{kSat, 324, 169, 2930, 0x7d1217f33cdac268ULL}, ""},
    {{kUnsat, 470, 270, 4489, 0x836b61dbdd4e841fULL}, "98,96,86,84,82/82,84,86,96"},
    {{kUnsat, 574, 321, 5585, 0x3f3db9e329f968a7ULL}, "98,96,94,88,86,84/84,86,94,96,98"},
    {{kSat, 593, 331, 5740, 0x8256425f0d837bc2ULL}, ""},
    {{kUnsat, 719, 404, 6952, 0x99cf8bf501c5d93eULL}, "94,92,90,86,80/80,86,90,92"},
    {{kUnsat, 804, 462, 8042, 0xf2021239c2584463ULL}, "98,96,94,92/98,96,94,92"},
};

TEST(SatGolden, RandomThreeSatCorpusIsPinned) {
  ASSERT_EQ(std::size(kGoldenCorpus), 50u);
  int unsat = 0;
  for (std::size_t i = 0; i < std::size(kGoldenCorpus); ++i) {
    EXPECT_EQ(solve_corpus_formula(i + 1), kGoldenCorpus[i]) << "seed " << i + 1;
    unsat += kGoldenCorpus[i].verdict == kUnsat;
  }
  EXPECT_GE(unsat, 10);
  EXPECT_LE(unsat, 40);
}

TEST(SatGolden, IncrementalAssumptionsAndCoreMinimizationArePinned) {
  const std::vector<GoldenStep> steps = run_incremental_sequence();
  ASSERT_EQ(steps.size(), std::size(kGoldenIncremental));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], kGoldenIncremental[i]) << "round " << i;
  }
}

TEST(SatGolden, BranchSeedCopiesArePinned) {
  const std::vector<GoldenSolve> runs = run_branch_seed_copies();
  ASSERT_EQ(runs.size(), std::size(kGoldenSeedCopies));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], kGoldenSeedCopies[i]) << "run " << i;
  }
}

TEST(SatGolden, ActivityRescaleIsPinned) {
  const GoldenSolve run = solve_rescale_formula();
  // Guards the coverage: below this many conflicts no rescale happens.
  EXPECT_GE(run.conflicts, 4500u);
  EXPECT_EQ(run, kGoldenRescale);
}

}  // namespace
}  // namespace slocal
