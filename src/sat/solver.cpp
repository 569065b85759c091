#include "src/sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace slocal {

namespace {

/// splitmix64: cheap, well-mixed 64-bit hash for seed-derived branching.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Var SatSolver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(kUndef);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_pos_.push_back(kNotInHeap);
  heap_insert(v);
  seen_.push_back(0);
  phase_.push_back(kUndef);
  watches_.emplace_back();
  watches_.emplace_back();
  return v;
}

void SatSolver::start_proof() {
  assert(clauses_.empty() && trail_.empty() && !unsat_ &&
         "proof logging must start before any clause is added");
  logging_ = true;
}

void SatSolver::log_step(bool is_delete, std::span<const Lit> lits) {
  SatProof::Step step;
  step.is_delete = is_delete;
  step.lits.reserve(lits.size());
  for (const Lit l : lits) {
    const std::int32_t dimacs = static_cast<std::int32_t>(l.var()) + 1;
    step.lits.push_back(l.negated() ? -dimacs : dimacs);
  }
  proof_.steps.push_back(std::move(step));
}

void SatSolver::add_clause(std::vector<Lit> lits) {
  if (unsat_) return;
  assert(trail_limits_.empty() && "clauses may only be added at decision level 0");
  if (logging_) {
    // Input clauses are logged verbatim: the stored clause below may be
    // strengthened against root units or dropped entirely, but the proof
    // must be checkable against what the caller asserted.
    std::vector<std::int32_t> original;
    original.reserve(lits.size());
    for (const Lit l : lits) {
      const std::int32_t dimacs = static_cast<std::int32_t>(l.var()) + 1;
      original.push_back(l.negated() ? -dimacs : dimacs);
    }
    proof_.input_clauses.push_back(std::move(original));
  }
  // Normalize: sort, dedupe, drop tautologies and false-at-root literals.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> kept;
  kept.reserve(lits.size());
  bool stripped = false;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == ~lits[i]) return;  // tautology
    // Root-level simplification only valid at decision level 0.
    if (trail_limits_.empty()) {
      const std::uint8_t v = lit_value(lits[i]);
      if (v == kTrue) return;  // already satisfied
      if (v == kFalse) {
        stripped = true;
        continue;
      }
    }
    kept.push_back(lits[i]);
  }
  // When root units stripped literals, the stored clause differs from the
  // logged input as a set. Log the stored form as a derived addition (RUP:
  // the dropped literals are unit-propagation-false, falsifying the input
  // clause) so the trace holds every clause the solver stores.
  if (logging_ && stripped && kept.size() >= 2) log_step(false, kept);
  if (kept.empty()) {
    unsat_ = true;
    if (logging_) log_step(false, {});  // refutation complete: empty clause
    return;
  }
  if (kept.size() == 1) {
    if (lit_value(kept[0]) == kFalse) {
      unsat_ = true;
      if (logging_) log_step(false, {});
      return;
    }
    if (lit_value(kept[0]) == kUndef) {
      enqueue(kept[0], kNoReason);
      if (propagate() != kNoReason) {
        unsat_ = true;
        if (logging_) log_step(false, {});
      }
    }
    return;
  }
  const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
  clauses_.push_back(Clause{std::move(kept), false, 0.0});
  attach(cr);
}

void SatSolver::attach(ClauseRef cr) {
  const auto& c = clauses_[cr].lits;
  watches_[(~c[0]).code()].push_back(cr);
  watches_[(~c[1]).code()].push_back(cr);
}

void SatSolver::enqueue(Lit l, ClauseRef reason) {
  assert(lit_value(l) == kUndef);
  assigns_[l.var()] = l.negated() ? kFalse : kTrue;
  level_[l.var()] = static_cast<int>(trail_limits_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++propagations_;
    // Clauses watching ~p must find a new watch or propagate/conflict.
    std::vector<ClauseRef>& watch_list = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const ClauseRef cr = watch_list[i];
      auto& lits = clauses_[cr].lits;
      // Ensure the falsified literal is at position 1.
      if (lits[0] == ~p) std::swap(lits[0], lits[1]);
      assert(lits[1] == ~p);
      if (lit_value(lits[0]) == kTrue) {
        watch_list[keep++] = cr;  // satisfied; keep watch
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::size_t k = 2; k < lits.size(); ++k) {
        if (lit_value(lits[k]) != kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).code()].push_back(cr);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict.
      watch_list[keep++] = cr;
      if (lit_value(lits[0]) == kFalse) {
        // Conflict: restore remaining watches and report.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return cr;
      }
      enqueue(lits[0], cr);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void SatSolver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Scaling keeps the order but can round distinct activities to equal
    // values, whose tie the index now breaks.
    heap_rebuild();
  } else if (heap_pos_[v] != kNotInHeap) {
    heap_up(heap_pos_[v]);
  }
}

bool SatSolver::heap_before(Var a, Var b) const {
  return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
}

void SatSolver::heap_insert(Var v) {
  if (heap_pos_[v] != kNotInHeap) return;
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

Var SatSolver::heap_pop() {
  const Var top = heap_.front();
  heap_pos_[top] = kNotInHeap;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    heap_down(0);
  }
  return top;
}

void SatSolver::heap_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void SatSolver::heap_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_before(heap_[child + 1], heap_[child])) ++child;
    if (!heap_before(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void SatSolver::heap_rebuild() {
  for (std::size_t i = heap_.size() / 2; i-- > 0;) heap_down(i);
}

void SatSolver::decay_activities() {
  var_inc_ /= 0.95;
  clause_inc_ /= 0.999;
}

void SatSolver::analyze(ClauseRef conflict, std::vector<Lit>& learned,
                        int& backtrack_level) {
  learned.clear();
  learned.push_back(Lit::positive(0));  // placeholder for the asserting literal
  int counter = 0;
  Lit p = Lit::positive(0);
  bool have_p = false;
  std::size_t trail_index = trail_.size();
  const int current_level = static_cast<int>(trail_limits_.size());

  ClauseRef reason = conflict;
  for (;;) {
    assert(reason != kNoReason);
    Clause& c = clauses_[reason];
    c.activity += clause_inc_;
    for (const Lit q : c.lits) {
      if (have_p && q == p) continue;
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      bump_var(q.var());
      if (level_[q.var()] >= current_level) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    do {
      --trail_index;
    } while (!seen_[trail_[trail_index].var()]);
    p = trail_[trail_index];
    have_p = true;
    seen_[p.var()] = 0;
    --counter;
    if (counter == 0) break;
    reason = reason_[p.var()];
  }
  learned[0] = ~p;

  // Clause minimization: drop literals implied by the rest (cheap local
  // check: a literal whose reason's literals are all marked).
  const auto redundant = [&](Lit q) {
    const ClauseRef r = reason_[q.var()];
    if (r == kNoReason) return false;
    for (const Lit x : clauses_[r].lits) {
      if (x == ~q) continue;
      if (level_[x.var()] != 0 && !seen_[x.var()]) return false;
    }
    return true;
  };
  for (const Lit q : learned) seen_[q.var()] = 1;
  std::vector<Lit> minimized;
  minimized.push_back(learned[0]);
  for (std::size_t i = 1; i < learned.size(); ++i) {
    if (!redundant(learned[i])) minimized.push_back(learned[i]);
  }
  for (const Lit q : learned) seen_[q.var()] = 0;
  learned = std::move(minimized);

  // Backtrack level: second-highest level in the learned clause.
  backtrack_level = 0;
  std::size_t swap_pos = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    if (level_[learned[i].var()] > backtrack_level) {
      backtrack_level = level_[learned[i].var()];
      swap_pos = i;
    }
  }
  if (learned.size() > 1) std::swap(learned[1], learned[swap_pos]);
}

void SatSolver::analyze_final(Lit failed) {
  failed_assumptions_.clear();
  failed_assumptions_.push_back(failed);
  // ~failed holds at the root: the clauses alone already refute `failed`;
  // no other assumption participates.
  if (trail_limits_.empty() || level_[failed.var()] == 0) return;
  // Walk the trail above level 0 from the top, expanding reasons. A marked
  // literal with no reason is a decision, and every decision at this point
  // is an assumption (analyze_final only runs while assumptions are being
  // established, before any heuristic branching) — it joins the core.
  seen_[failed.var()] = 1;
  for (std::size_t i = trail_.size(); i-- > trail_limits_[0];) {
    const Lit x = trail_[i];
    if (!seen_[x.var()]) continue;
    if (reason_[x.var()] == kNoReason) {
      failed_assumptions_.push_back(x);
    } else {
      for (const Lit q : clauses_[reason_[x.var()]].lits) {
        if (level_[q.var()] > 0) seen_[q.var()] = 1;
      }
    }
    seen_[x.var()] = 0;
  }
  seen_[failed.var()] = 0;
}

void SatSolver::backtrack(int target_level) {
  while (static_cast<int>(trail_limits_.size()) > target_level) {
    const std::size_t limit = trail_limits_.back();
    trail_limits_.pop_back();
    while (trail_.size() > limit) {
      const Var v = trail_.back().var();
      phase_[v] = assigns_[v];  // phase saving: remember the last polarity
      assigns_[v] = kUndef;
      reason_[v] = kNoReason;
      heap_insert(v);
      trail_.pop_back();
    }
  }
  propagate_head_ = trail_.size();
}

void SatSolver::set_branch_seed(std::uint64_t seed) {
  branch_seed_ = seed;
  if (seed == 0) return;
  // Tiny deterministic jitter (far below any real activity bump) so copies
  // with different seeds break activity ties on different variables.
  for (Var v = 0; v < activity_.size(); ++v) {
    activity_[v] += 1e-9 * static_cast<double>(mix64(seed ^ v) >> 40);
  }
  heap_rebuild();
}

std::optional<Lit> SatSolver::pick_branch() {
  while (!heap_.empty() && assigns_[heap_.front()] != kUndef) heap_pop();
  const std::optional<Var> picked =
      heap_.empty() ? std::nullopt : std::optional<Var>(heap_pop());
#ifndef NDEBUG
  // Oracle: the heap picks what a scan of every variable picks, the
  // unassigned one of maximum activity, the lowest index among ties.
  std::optional<Var> scanned;
  for (Var v = 0; v < assigns_.size(); ++v) {
    if (assigns_[v] == kUndef && (!scanned || activity_[v] > activity_[*scanned])) {
      scanned = v;
    }
  }
  assert(picked == scanned && "order heap disagrees with a scan of all variables");
#endif
  if (!picked) return std::nullopt;
  const Var best = *picked;
  ++decisions_;
  // Saved phase first (the polarity this variable last held), then the
  // seed-derived polarity, then the fixed negative-first default.
  if (phase_[best] != kUndef) {
    return phase_[best] == kTrue ? Lit::positive(best) : Lit::negative(best);
  }
  if (branch_seed_ != 0 && (mix64(branch_seed_ ^ (best * 0x10001ull)) & 1)) {
    return Lit::positive(best);
  }
  return Lit::negative(best);  // default negative-first polarity
}

void SatSolver::reduce_learned() {
  // Drop the lazier half of learned clauses by activity; keep binary
  // clauses and clauses currently acting as reasons.
  std::vector<ClauseRef> learned;
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    if (clauses_[cr].learned && clauses_[cr].lits.size() > 2) learned.push_back(cr);
  }
  if (learned.size() < 2000) return;
  std::sort(learned.begin(), learned.end(), [&](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  std::vector<bool> is_reason(clauses_.size(), false);
  for (const Lit l : trail_) {
    if (reason_[l.var()] != kNoReason) is_reason[reason_[l.var()]] = true;
  }
  std::vector<bool> drop(clauses_.size(), false);
  for (std::size_t i = 0; i < learned.size() / 2; ++i) {
    if (!is_reason[learned[i]]) drop[learned[i]] = true;
  }
  // Rebuild watches without dropped clauses (clause vector keeps slots to
  // preserve ClauseRef stability; dropped clauses are emptied).
  for (auto& wl : watches_) {
    std::erase_if(wl, [&](ClauseRef cr) { return drop[cr]; });
  }
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    if (drop[cr]) {
      // Watch-list maintenance permutes literals but never changes the set,
      // so the deletion step matches the clause as it was logged on learning.
      if (logging_) log_step(true, clauses_[cr].lits);
      clauses_[cr].lits.clear();
      clauses_[cr].lits.shrink_to_fit();
    }
  }
}

SatResult SatSolver::solve(std::uint64_t conflict_budget, SearchBudget* budget) {
  return solve_under_assumptions({}, conflict_budget, budget);
}

SatResult SatSolver::solve_under_assumptions(std::span<const Lit> assumptions,
                                             std::uint64_t conflict_budget,
                                             SearchBudget* budget) {
  failed_assumptions_.clear();
  if (unsat_) return SatResult::kUnsat;
  if (budget != nullptr && !budget->keep_going()) return SatResult::kUnknown;
  if (propagate() != kNoReason) {
    unsat_ = true;
    if (logging_) log_step(false, {});
    return SatResult::kUnsat;
  }
  std::uint64_t restart_limit = 100;
  std::uint64_t conflicts_since_restart = 0;
  std::vector<Lit> learned;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++conflicts_;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) {
        // Conflict below every assumption: the clauses alone are UNSAT.
        unsat_ = true;
        if (logging_) log_step(false, {});
        return SatResult::kUnsat;
      }
      if (conflict_budget != 0 && conflicts_ > conflict_budget) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      if (budget != nullptr && !budget->charge_conflicts(1)) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      int backtrack_level = 0;
      analyze(conflict, learned, backtrack_level);
      // First-UIP clauses (including reason-side minimization) are reverse-
      // unit-propagation consequences of the clause database, so they are
      // valid DRAT addition steps.
      if (logging_) log_step(false, learned);
      backtrack(backtrack_level);
      if (learned.size() == 1) {
        enqueue(learned[0], kNoReason);
      } else {
        const ClauseRef cr = static_cast<ClauseRef>(clauses_.size());
        clauses_.push_back(Clause{learned, true, clause_inc_});
        attach(cr);
        enqueue(learned[0], cr);
      }
      decay_activities();
    } else {
      if (conflicts_since_restart >= restart_limit) {
        conflicts_since_restart = 0;
        restart_limit = restart_limit + restart_limit / 2;
        backtrack(0);
        reduce_learned();
        continue;
      }
      if (budget != nullptr && !budget->keep_going()) {
        backtrack(0);
        return SatResult::kUnknown;
      }
      // Establish the next pending assumption before any heuristic branch
      // (restarts and deep backjumps may have popped earlier ones — they are
      // re-established here, never re-learned).
      bool enqueued_assumption = false;
      bool assumption_failed = false;
      while (trail_limits_.size() < assumptions.size()) {
        const Lit p = assumptions[trail_limits_.size()];
        const std::uint8_t v = lit_value(p);
        if (v == kTrue) {
          trail_limits_.push_back(trail_.size());  // already implied: dummy level
        } else if (v == kFalse) {
          analyze_final(p);
          assumption_failed = true;
          break;
        } else {
          trail_limits_.push_back(trail_.size());
          enqueue(p, kNoReason);
          enqueued_assumption = true;
          break;
        }
      }
      if (assumption_failed) {
        // The assumption-core clause (¬a for every core assumption a) is
        // itself a unit-propagation consequence of the clause database:
        // asserting the whole core re-derives the contradiction by UP.
        if (logging_) {
          std::vector<Lit> core_clause;
          core_clause.reserve(failed_assumptions_.size());
          for (const Lit a : failed_assumptions_) core_clause.push_back(~a);
          log_step(false, core_clause);
        }
        backtrack(0);
        return SatResult::kUnsat;
      }
      if (enqueued_assumption) continue;
      const auto branch = pick_branch();
      if (!branch) {
        model_ = assigns_;
        backtrack(0);
        return SatResult::kSat;
      }
      trail_limits_.push_back(trail_.size());
      enqueue(*branch, kNoReason);
    }
  }
}

std::size_t SatSolver::minimize_core(std::uint64_t per_probe_conflicts,
                                     SearchBudget* budget) {
  std::vector<Lit> core(failed_assumptions_.begin(), failed_assumptions_.end());
  const std::size_t original_size = core.size();
  std::size_t i = 0;
  while (i < core.size()) {
    if (budget != nullptr && !budget->keep_going()) break;
    std::vector<Lit> candidate;
    candidate.reserve(core.size() - 1);
    for (std::size_t j = 0; j < core.size(); ++j) {
      if (j != i) candidate.push_back(core[j]);
    }
    // Probe accounting: each deletion probe is a full (budgeted) re-solve
    // whose conflicts are otherwise indistinguishable from search conflicts.
    ++stats_.core_probe_solves;
    const std::uint64_t conflicts_before = conflicts_;
    const SatResult probe =
        solve_under_assumptions(candidate, per_probe_conflicts, budget);
    stats_.core_probe_conflicts += conflicts_ - conflicts_before;
    if (probe == SatResult::kUnsat) {
      // Still UNSAT without core[i]; the returned core may be smaller than
      // `candidate` (other literals dropped for free). Restart the scan:
      // literals kept earlier can become droppable once this one is gone.
      core.assign(failed_assumptions_.begin(), failed_assumptions_.end());
      i = 0;
    } else {
      // kSat or budget-exhausted kUnknown: core[i] stays (never drop a
      // literal on an unfinished probe — the result must remain a core).
      ++i;
    }
  }
  failed_assumptions_ = std::move(core);
  const std::size_t removed = original_size - failed_assumptions_.size();
  stats_.core_literals_removed += removed;
  return removed;
}

bool SatSolver::value(Var v) const {
  assert(v < model_.size() && model_[v] != kUndef);
  return model_[v] == kTrue;
}

}  // namespace slocal
