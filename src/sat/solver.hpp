// A compact incremental CDCL SAT solver.
//
// The framework reduces its central graph-theoretic question — "does
// problem Ψ (typically lift(Π')) admit a solution on support graph G?" —
// to propositional satisfiability (src/solver/cnf_encoding.hpp). No
// external solver is assumed; this is a self-contained implementation of
// the standard architecture: two-watched-literal propagation, first-UIP
// conflict analysis with clause learning, VSIDS-style activity ordering,
// geometric restarts, and activity-based learned-clause reduction.
//
// Decisions come from a binary heap of variables (MiniSat's order heap)
// ordered by activity descending, then variable index ascending: the top is
// exactly the variable a scan for the first strict maximum would pick, so
// decisions, learned clauses and DRAT proofs do not depend on the heap's
// layout. Every unassigned variable is in the heap; assigned ones leave it
// lazily when they reach the top.
//
// The solver is *incremental* in the MiniSat sense: clauses can be added
// between solve calls (learned clauses are retained across them), and
// solve_under_assumptions() decides satisfiability under a conjunction of
// assumption literals without committing them — an UNSAT answer comes with
// failed_assumptions(), a subset of the assumptions whose conjunction the
// clause set refutes. Lift sweeps (src/solver/cnf_encoding.hpp) use this to
// encode a family of supports once and flip per-support constraints on and
// off through assumption-guarded clauses.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/util/budget.hpp"

namespace slocal {

using Var = std::uint32_t;

/// Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() = default;
  static Lit positive(Var v) { return Lit(2 * v); }
  static Lit negative(Var v) { return Lit(2 * v + 1); }

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  Lit operator~() const { return Lit(code_ ^ 1); }
  std::uint32_t code() const { return code_; }

  bool operator==(const Lit&) const = default;

 private:
  explicit Lit(std::uint32_t code) : code_(code) {}
  std::uint32_t code_ = 0;
};

enum class SatResult { kSat, kUnsat, kUnknown };

/// Cumulative counters for the work the solver does outside the core CDCL
/// loop: the deletion probes of minimize_core(). All counters are monotone
/// over the solver's lifetime and copied with it, so a portfolio copy starts
/// from its parent's totals.
struct SatStats {
  // Always 0: kept only because perfbench/ reads them; the next benchmark
  // change removes them.
  std::uint64_t inprocess_runs = 0;
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t vivified_clauses = 0;
  std::uint64_t eliminated_vars = 0;
  // minimize_core() probe accounting: each deletion probe is a budgeted
  // re-solve whose conflicts would otherwise be invisible to callers.
  std::uint64_t core_probe_solves = 0;
  std::uint64_t core_probe_conflicts = 0;
  std::uint64_t core_literals_removed = 0;
};

/// Proof trace in DIMACS convention (variable v ↦ v+1, negation ↦ minus),
/// accumulated by SatSolver when proof logging is on. `input_clauses` holds
/// every clause handed to add_clause() in its *original* literal form (the
/// solver stores root-simplified versions; the proof must reference what the
/// caller actually asserted). `steps` holds the derivation: learned-clause
/// additions (each checkable by reverse unit propagation over the clauses
/// seen so far), deletions from learned-clause GC, and the finalization
/// clause — the empty clause for a root refutation, or the assumption-core
/// clause (¬a₁ ∨ … ∨ ¬aₖ) when solve_under_assumptions() answered kUnsat.
struct SatProof {
  struct Step {
    bool is_delete = false;
    std::vector<std::int32_t> lits;  // DIMACS-signed, empty = empty clause
  };
  std::vector<std::vector<std::int32_t>> input_clauses;
  std::vector<Step> steps;

  void clear() {
    input_clauses.clear();
    steps.clear();
  }
};

class SatSolver {
 public:
  SatSolver() = default;

  Var new_var();
  std::size_t var_count() const { return assigns_.size(); }

  /// Adds a clause (empty clause makes the formula trivially UNSAT;
  /// duplicate and opposite literals are handled). May be called between
  /// solve calls — the solver always returns to decision level 0 — but not
  /// after solve() has returned kUnsat with no assumptions (the formula is
  /// then permanently contradictory).
  void add_clause(std::vector<Lit> lits);

  /// Solves, optionally under a conflict budget (0 = unlimited) and/or a
  /// shared SearchBudget (deadline, external cancel, shared conflict limit).
  /// Either budget tripping yields kUnknown — never a wrong kSat/kUnsat.
  /// When `budget` is given, every conflict is also charged onto it, so a
  /// portfolio sharing one budget across racing copies aggregates their
  /// conflict totals.
  SatResult solve(std::uint64_t conflict_budget = 0, SearchBudget* budget = nullptr);

  /// Solves under the conjunction of `assumptions` without committing them:
  /// the solver state (clauses, learned clauses, activities) survives the
  /// call and further solves may use different assumptions. kUnsat means
  /// the clauses refute the assumption conjunction; failed_assumptions()
  /// then holds a subset of `assumptions` that already suffices (empty iff
  /// the clause set is unsatisfiable on its own). Budgets as in solve().
  SatResult solve_under_assumptions(std::span<const Lit> assumptions,
                                    std::uint64_t conflict_budget = 0,
                                    SearchBudget* budget = nullptr);

  /// After solve_under_assumptions() returned kUnsat: an unsatisfiable core
  /// over the assumption literals (their conjunction is refuted by the
  /// clauses alone when empty). Invalidated by the next solve call.
  std::span<const Lit> failed_assumptions() const { return failed_assumptions_; }

  /// Deletion-based shrink of failed_assumptions(): for each core literal,
  /// re-solves under the core minus that literal and adopts the (strictly
  /// smaller) returned core whenever the answer is still kUnsat. Probes that
  /// run out of budget keep the literal — the result is always an UNSAT core
  /// and always a subset of the core held on entry, just not necessarily
  /// minimal. `per_probe_conflicts` caps each re-solve (0 = unlimited);
  /// `budget` is charged across all probes and stops the loop when spent.
  /// Returns the number of literals removed. Must only be called while
  /// failed_assumptions() is valid (directly after a kUnsat answer from
  /// solve_under_assumptions, or after a previous minimize_core call).
  std::size_t minimize_core(std::uint64_t per_probe_conflicts = 0,
                            SearchBudget* budget = nullptr);

  /// Turns on DRAT proof logging. Must be called before any clause is added:
  /// input clauses have to be captured in original form (the solver stores
  /// root-simplified versions and moves units straight onto the trail, so
  /// they cannot be recovered later). The trace accumulates across solve
  /// calls.
  void start_proof();
  const SatProof& proof() const { return proof_; }

  const SatStats& stats() const { return stats_; }

  /// Branching-polarity preferences, one entry per variable: 0 = decide
  /// positive (true) first, 1 = negative first, 2 = no preference (fall back
  /// to the seed rule). The solver keeps this current via phase saving —
  /// every unassignment records the variable's last value — so after a kSat
  /// solve phases() reflects the model.
  const std::vector<std::uint8_t>& phases() const { return phase_; }

  /// Diversifies the branching heuristic for portfolio racing: seed != 0
  /// perturbs variable activities by a tiny deterministic per-variable
  /// jitter (breaking ties differently per seed) and derives decision
  /// polarity from hash(seed, var) instead of the fixed negative-first
  /// rule. Seed 0 restores the default deterministic heuristic. The solver
  /// stays copyable, so one encoded instance can be cloned per seed.
  void set_branch_seed(std::uint64_t seed);

  /// Model access after kSat (the model of the most recent kSat solve; it
  /// survives later clause additions until the next solve call).
  bool value(Var v) const;

  std::uint64_t conflicts() const { return conflicts_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t propagations() const { return propagations_; }

 private:
  enum : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
    double activity = 0.0;
  };

  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xffffffffu;

  std::uint8_t lit_value(Lit l) const {
    const std::uint8_t v = assigns_[l.var()];
    if (v == kUndef) return kUndef;
    return static_cast<std::uint8_t>(v ^ (l.negated() ? 1 : 0));
  }

  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // returns conflicting clause or kNoReason
  void analyze(ClauseRef conflict, std::vector<Lit>& learned, int& backtrack_level);
  /// Fills failed_assumptions_ with the assumptions that imply ~failed
  /// (plus `failed` itself) — the assumption-level analogue of analyze().
  void analyze_final(Lit failed);
  void backtrack(int level);
  void bump_var(Var v);
  void decay_activities();
  std::optional<Lit> pick_branch();
  /// Heap order: higher activity first, the lower index among equal ones.
  bool heap_before(Var a, Var b) const;
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(std::size_t i);
  void heap_down(std::size_t i);
  void heap_rebuild();  // after activities changed other than by a bump
  void attach(ClauseRef cr);
  void reduce_learned();
  void log_step(bool is_delete, std::span<const Lit> lits);

  std::vector<Clause> clauses_;
  std::vector<std::vector<ClauseRef>> watches_;  // indexed by literal code
  std::vector<std::uint8_t> assigns_;            // per var: kTrue/kFalse/kUndef
  std::vector<int> level_;                       // per var
  std::vector<ClauseRef> reason_;                // per var
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_limits_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;  // per var
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  std::vector<Var> heap_;                // order heap of decision candidates
  std::vector<std::uint32_t> heap_pos_;  // per var: index in heap_ or kNotInHeap
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  bool unsat_ = false;
  std::uint64_t branch_seed_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;

  std::vector<std::uint8_t> model_;  // assigns_ snapshot of the last kSat
  std::vector<Lit> failed_assumptions_;
  std::vector<std::uint8_t> seen_;   // scratch for analyze()
  std::vector<std::uint8_t> phase_;  // per var: saved polarity (2 = none)
  SatStats stats_;

  bool logging_ = false;
  SatProof proof_;
};

}  // namespace slocal
