#include <gtest/gtest.h>

#include <cstdint>
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
// Phase saving: the solver remembers branch polarities across solves, and
// callers (the portfolio) can transplant them between engines.
// ---------------------------------------------------------------------------

TEST(Sat, SetPhasesSteersFreeVariableAssignments) {
  // Eight nearly-free variables: only one weak clause constrains v0/v1, so
  // every branch follows the preloaded phase (0 = prefer positive).
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s.new_var());
  s.add_clause({pos(v[0]), pos(v[1])});
  const std::vector<std::uint8_t> pattern = {0, 1, 1, 0, 0, 1, 0, 1};
  s.set_phases(pattern);
  ASSERT_EQ(s.solve(), SatResult::kSat);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(s.value(v[i]), pattern[static_cast<std::size_t>(i)] == 0)
        << "variable " << i << " ignored its preloaded phase";
  }
}

TEST(Sat, PhasesReflectModelAfterSatSolve) {
  // No root units here: every variable is decided or propagated above level
  // zero, so the final backtrack phase-saves the full model — including the
  // propagated (not just decided) polarities.
  SatSolver s;
  std::vector<Var> v;
  for (int i = 0; i < 6; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 6; i += 2) s.add_clause({neg(v[i]), neg(v[i + 1])});
  const std::vector<std::uint8_t> positive(6, 0);  // prefer positive everywhere
  s.set_phases(positive);
  ASSERT_EQ(s.solve(), SatResult::kSat);
  const auto& phases = s.phases();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(phases[v[i]] == 0, s.value(v[i]))
        << "phases() disagrees with the model at variable " << i;
  }
  // The even variables followed their preloaded positive phase; each odd one
  // was then forced negative by its binary clause.
  for (int i = 0; i < 6; i += 2) {
    EXPECT_TRUE(s.value(v[i]));
    EXPECT_FALSE(s.value(v[i + 1]));
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

}  // namespace
}  // namespace slocal
