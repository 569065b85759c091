#include "src/solver/cnf_encoding.hpp"

#include <algorithm>
#include <cassert>

#include "src/graph/hypergraph.hpp"

namespace slocal {

namespace {

/// Conflict cap per deletion probe of check_last_core's core minimization.
/// Cores are small (a handful of guard literals) and the refutation is
/// already learned, so probes either finish in a few conflicts or are not
/// worth pursuing.
constexpr std::uint64_t kCoreProbeConflicts = 512;

}  // namespace

std::vector<Var> add_exactly_one(SatSolver& solver, std::size_t alphabet,
                                 std::size_t& clause_count) {
  std::vector<Var> vars(alphabet);
  for (std::size_t l = 0; l < alphabet; ++l) vars[l] = solver.new_var();
  std::vector<Lit> at_least;
  at_least.reserve(alphabet);
  for (std::size_t l = 0; l < alphabet; ++l) at_least.push_back(Lit::positive(vars[l]));
  solver.add_clause(std::move(at_least));
  ++clause_count;
  for (std::size_t a = 0; a < alphabet; ++a) {
    for (std::size_t b = a + 1; b < alphabet; ++b) {
      solver.add_clause({Lit::negative(vars[a]), Lit::negative(vars[b])});
      ++clause_count;
    }
  }
  return vars;
}

void block_bad_prefixes(SatSolver& solver, const SubmultisetAutomaton& automaton,
                        std::span<const std::vector<Var>* const> slots,
                        std::size_t alphabet, std::size_t& clause_count,
                        SearchBudget* budget, const Lit* guard) {
  // A live state after all slots is a full-size sub-multiset of a member,
  // i.e. a member: the walk tests extension and membership alike.
  std::vector<Label> prefix;
  prefix.reserve(slots.size());
  auto dfs = [&](auto&& self, SubmultisetAutomaton::State state) -> void {
    if (budget != nullptr && !budget->charge()) return;
    const std::size_t depth = prefix.size();
    if (state == SubmultisetAutomaton::kDead) {
      std::vector<Lit> clause;
      clause.reserve(depth + (guard != nullptr ? 1 : 0));
      for (std::size_t i = 0; i < depth; ++i) {
        clause.push_back(Lit::negative((*slots[i])[prefix[i]]));
      }
      if (guard != nullptr) clause.push_back(*guard);
      solver.add_clause(std::move(clause));
      ++clause_count;
      return;  // minimal prefix blocked; no need to extend
    }
    if (depth == slots.size()) return;
    for (std::size_t l = 0; l < alphabet; ++l) {
      prefix.push_back(static_cast<Label>(l));
      self(self, automaton.next(state, prefix.back()));
      prefix.pop_back();
    }
  };
  dfs(dfs, automaton.root());
}

std::optional<LabelingCnf> encode_bipartite_labeling(const BipartiteGraph& g,
                                                     const Problem& pi,
                                                     SearchBudget* budget,
                                                     bool log_proof,
                                                     bool /*unused*/) {
  const auto white = pi.white().automaton();
  const auto black = pi.black().automaton();
  if (!white || !black) return std::nullopt;  // past the index cap
  LabelingCnf cnf;
  SatSolver& solver = cnf.solver;
  // Proof logging has to be armed before the first clause goes in: the
  // solver cannot reconstruct original clauses from its simplified store.
  if (log_proof) solver.start_proof();
  const std::size_t alphabet = pi.alphabet_size();
  std::vector<std::vector<Var>>& x = cnf.edge_label_vars;
  x.resize(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    x[e] = add_exactly_one(solver, alphabet, cnf.clause_count);
  }
  const auto block_node = [&](const SubmultisetAutomaton& automaton,
                              std::span<const EdgeId> incident) {
    std::vector<const std::vector<Var>*> incident_vars;
    incident_vars.reserve(incident.size());
    for (const EdgeId e : incident) incident_vars.push_back(&x[e]);
    block_bad_prefixes(solver, automaton, incident_vars, alphabet,
                       cnf.clause_count, budget);
  };
  for (NodeId w = 0; w < g.white_count(); ++w) {
    if (g.white_degree(w) != pi.white_degree()) continue;
    block_node(*white, g.white_incident(w));
  }
  for (NodeId b = 0; b < g.black_count(); ++b) {
    if (g.black_degree(b) != pi.black_degree()) continue;
    block_node(*black, g.black_incident(b));
  }
  // A budget tripped mid-encoding leaves blocking clauses missing; the
  // formula is an under-constraint and must not be solved.
  if (budget != nullptr && budget->halted()) return std::nullopt;
  return cnf;
}

std::vector<Label> decode_bipartite_labeling(const LabelingCnf& cnf,
                                             std::size_t alphabet) {
  std::vector<Label> labels(cnf.edge_label_vars.size(), 0);
  for (EdgeId e = 0; e < cnf.edge_label_vars.size(); ++e) {
    for (std::size_t l = 0; l < alphabet; ++l) {
      if (cnf.solver.value(cnf.edge_label_vars[e][l])) {
        labels[e] = static_cast<Label>(l);
        break;
      }
    }
  }
  return labels;
}

std::optional<std::vector<Label>> solve_bipartite_labeling_sat(
    const BipartiteGraph& g, const Problem& pi, std::uint64_t conflict_budget,
    SatLabelingStats* stats, SearchBudget* budget) {
  auto cnf = encode_bipartite_labeling(g, pi, budget);
  if (!cnf) {
    if (stats != nullptr) *stats = SatLabelingStats{};  // result = kUnknown
    return std::nullopt;
  }
  const SatResult result = cnf->solver.solve(conflict_budget, budget);
  if (stats != nullptr) {
    stats->variables = cnf->solver.var_count();
    stats->clauses = cnf->clause_count;
    stats->conflicts = cnf->solver.conflicts();
    stats->result = result;
  }
  if (result != SatResult::kSat) return std::nullopt;
  return decode_bipartite_labeling(*cnf, pi.alphabet_size());
}

std::optional<std::vector<Label>> solve_graph_halfedge_labeling_sat(
    const Graph& g, const Problem& pi, std::uint64_t conflict_budget,
    SatLabelingStats* stats, SearchBudget* budget) {
  return solve_bipartite_labeling_sat(Hypergraph::from_graph(g).incidence_graph(), pi,
                                      conflict_budget, stats, budget);
}

IncrementalLabelingSweep::IncrementalLabelingSweep(Problem pi)
    : pi_(std::move(pi)),
      white_automaton_(pi_.white().automaton()),
      black_automaton_(pi_.black().automaton()) {}

const std::vector<Var>& IncrementalLabelingSweep::edge_vars(NodeId w, NodeId b) {
  const EdgeKey key = edge_key(w, b);
  const auto it = edge_vars_.find(key);
  if (it != edge_vars_.end()) return it->second;
  return edge_vars_
      .emplace(key, add_exactly_one(solver_, pi_.alphabet_size(), clause_count_))
      .first->second;
}

bool IncrementalLabelingSweep::encode_support(const BipartiteGraph& g,
                                              std::vector<Lit>* assumptions,
                                              std::vector<NodeRef>* owners,
                                              Step* step, SearchBudget* budget) {
  if (!white_automaton_ || !black_automaton_) return false;  // past the index cap
  const std::size_t alphabet = pi_.alphabet_size();
  // Edge structure first, so node encodings below can take stable pointers
  // into edge_vars_ (unordered_map never invalidates element references).
  for (const BiEdge& e : g.edges()) edge_vars(e.white, e.black);

  const auto encode_node = [&](bool white, NodeId node,
                               std::span<const EdgeId> incident) -> bool {
    std::pair<bool, std::vector<EdgeKey>> key;
    key.first = white;
    key.second.reserve(incident.size());
    for (const EdgeId e : incident) {
      key.second.push_back(edge_key(g.edge(e).white, g.edge(e).black));
    }
    std::sort(key.second.begin(), key.second.end());
    const auto it = guards_.find(key);
    Var guard;
    if (it != guards_.end()) {
      guard = it->second;
      ++step->reused_guards;
    } else {
      guard = solver_.new_var();
      std::vector<const std::vector<Var>*> incident_vars;
      incident_vars.reserve(incident.size());
      for (const EdgeKey k : key.second) incident_vars.push_back(&edge_vars_.at(k));
      const Lit deactivate = Lit::negative(guard);
      block_bad_prefixes(solver_, white ? *white_automaton_ : *black_automaton_,
                         incident_vars, alphabet, clause_count_, budget, &deactivate);
      // A tripped budget aborted the DFS mid-instance: abandon this guard
      // (its partial clauses stay vacuous — the guard is never assumed and
      // never registered, so a later retry re-encodes under a fresh one).
      if (budget != nullptr && budget->halted()) return false;
      guards_.emplace(std::move(key), guard);
      ++step->new_guards;
    }
    assumptions->push_back(Lit::positive(guard));
    owners->push_back(NodeRef{white, node});
    return true;
  };

  for (NodeId w = 0; w < g.white_count(); ++w) {
    if (g.white_degree(w) != pi_.white_degree()) continue;
    if (!encode_node(true, w, g.white_incident(w))) return false;
  }
  for (NodeId b = 0; b < g.black_count(); ++b) {
    if (g.black_degree(b) != pi_.black_degree()) continue;
    if (!encode_node(false, b, g.black_incident(b))) return false;
  }
  return budget == nullptr || !budget->halted();
}

IncrementalLabelingSweep::Step IncrementalLabelingSweep::solve_support(
    const BipartiteGraph& g, SearchBudget* budget) {
  Step step;
  const std::size_t clauses_before = clause_count_;
  const std::uint64_t conflicts_before = solver_.conflicts();
  std::vector<Lit> assumptions;
  std::vector<NodeRef> owners;
  if (!encode_support(g, &assumptions, &owners, &step, budget)) {
    step.new_clauses = clause_count_ - clauses_before;
    return step;  // kExhausted, stats.result stays kUnknown
  }
  step.new_clauses = clause_count_ - clauses_before;

  const SatResult result = solver_.solve_under_assumptions(assumptions, 0, budget);
  step.stats.variables = solver_.var_count();
  step.stats.clauses = clause_count_;
  step.stats.conflicts = solver_.conflicts() - conflicts_before;
  step.stats.result = result;
  if (result == SatResult::kSat) {
    step.verdict = Verdict::kYes;
    std::vector<Label> labels(g.edge_count(), 0);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const std::vector<Var>& vars =
          edge_vars_.at(edge_key(g.edge(e).white, g.edge(e).black));
      for (std::size_t l = 0; l < pi_.alphabet_size(); ++l) {
        if (solver_.value(vars[l])) {
          labels[e] = static_cast<Label>(l);
          break;
        }
      }
    }
    step.labels = std::move(labels);
  } else if (result == SatResult::kUnsat) {
    step.verdict = Verdict::kNo;
    const auto failed = solver_.failed_assumptions();
    last_core_.assign(failed.begin(), failed.end());
    for (const Lit l : failed) {
      for (std::size_t i = 0; i < assumptions.size(); ++i) {
        if (assumptions[i] == l) {
          step.core.push_back(owners[i]);
          break;
        }
      }
    }
  }
  return step;
}

Verdict IncrementalLabelingSweep::check_last_core(SearchBudget* budget) {
  switch (solver_.solve_under_assumptions(last_core_, 0, budget)) {
    case SatResult::kUnsat:
      // The core alone is contradictory, as claimed. Shrink it while the
      // solver state is hot: a per-probe conflict cap keeps each deletion
      // probe cheap, and an exhausted probe just keeps its literal.
      solver_.minimize_core(kCoreProbeConflicts, budget);
      last_core_.assign(solver_.failed_assumptions().begin(),
                        solver_.failed_assumptions().end());
      return Verdict::kNo;
    case SatResult::kSat:
      return Verdict::kYes;  // core refuted — a solver bug
    case SatResult::kUnknown:
      break;
  }
  return Verdict::kExhausted;
}

}  // namespace slocal
