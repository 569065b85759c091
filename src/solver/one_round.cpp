#include "src/solver/one_round.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <vector>

#include "src/solver/cnf_encoding.hpp"
#include "src/solver/zero_round.hpp"

namespace slocal {

namespace {

/// Sorted, deduplicated edge ids.
std::vector<EdgeId> sorted_unique(std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// The radius-t relevant edge set of white v: every edge incident to a node
/// within distance t of v in the support (after t rounds, v has learned
/// exactly the flags those nodes hold). t = 0 gives inc(v).
std::vector<EdgeId> white_scope(const BipartiteGraph& g, NodeId v, std::size_t t) {
  // BFS over the bipartite graph; node ids: white w -> w, black b -> W + b.
  const std::size_t offset = g.white_count();
  std::vector<std::size_t> dist(g.white_count() + g.black_count(),
                                std::numeric_limits<std::size_t>::max());
  std::vector<std::size_t> frontier{v};
  dist[v] = 0;
  std::vector<EdgeId> scope(g.white_incident(v).begin(), g.white_incident(v).end());
  for (std::size_t level = 0; level < t && !frontier.empty(); ++level) {
    std::vector<std::size_t> next;
    for (const std::size_t node : frontier) {
      const bool is_white = node < offset;
      const auto incident = is_white
                                ? g.white_incident(static_cast<NodeId>(node))
                                : g.black_incident(static_cast<NodeId>(node - offset));
      for (const EdgeId e : incident) {
        const std::size_t other = is_white
                                      ? offset + g.edge(e).black
                                      : static_cast<std::size_t>(g.edge(e).white);
        if (dist[other] > level + 1) {
          dist[other] = level + 1;
          next.push_back(other);
          const auto other_inc =
              other < offset
                  ? g.white_incident(static_cast<NodeId>(other))
                  : g.black_incident(static_cast<NodeId>(other - offset));
          scope.insert(scope.end(), other_inc.begin(), other_inc.end());
        }
      }
    }
    frontier = std::move(next);
  }
  return sorted_unique(std::move(scope));
}

/// Is a flag assignment over `scope` realizable as (the restriction of) a
/// valid input graph? Necessary and sufficient: every node's flagged degree
/// respects its cap (complete with no further edges).
bool realizable(const BipartiteGraph& g, const std::vector<EdgeId>& scope,
                std::uint32_t mask, std::size_t delta_prime, std::size_t r_prime,
                std::vector<std::size_t>& white_load,
                std::vector<std::size_t>& black_load) {
  std::fill(white_load.begin(), white_load.end(), 0);
  std::fill(black_load.begin(), black_load.end(), 0);
  for (std::size_t i = 0; i < scope.size(); ++i) {
    if (!(mask & (std::uint32_t{1} << i))) continue;
    const BiEdge& e = g.edge(scope[i]);
    if (++white_load[e.white] > delta_prime) return false;
    if (++black_load[e.black] > r_prime) return false;
  }
  return true;
}

/// Restriction of a flag assignment over `big` to the sub-scope `small`
/// (small must be a subset of big; both sorted).
std::uint32_t restrict_mask(const std::vector<EdgeId>& big, std::uint32_t mask,
                            const std::vector<EdgeId>& small) {
  std::uint32_t out = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < small.size(); ++i) {
    while (j < big.size() && big[j] < small[i]) ++j;
    assert(j < big.size() && big[j] == small[i]);
    if (mask & (std::uint32_t{1} << j)) out |= std::uint32_t{1} << i;
  }
  return out;
}

}  // namespace

std::optional<bool> t_round_white_algorithm_exists(const BipartiteGraph& g,
                                                   const Problem& pi, std::size_t t,
                                                   const OneRoundOptions& options) {
  const std::size_t delta_prime = pi.white_degree();
  const std::size_t r_prime = pi.black_degree();
  const std::size_t alphabet = pi.alphabet_size();

  std::vector<std::size_t> white_load(g.white_count());
  std::vector<std::size_t> black_load(g.black_count());

  // Per white node: its scope and a variable table per realizable view with
  // at least one own input edge. y[v][view][own-input-position][label].
  std::vector<std::vector<EdgeId>> scopes(g.white_count());
  std::vector<std::map<std::uint32_t, std::vector<std::vector<Var>>>> y(g.white_count());
  SatSolver solver;
  std::size_t clause_count = 0;  // required by the clause primitives, unreported
  const auto white = pi.white().automaton();
  const auto black = pi.black().automaton();
  if (!white || !black) return std::nullopt;  // past the index cap

  for (NodeId v = 0; v < g.white_count(); ++v) {
    scopes[v] = white_scope(g, v, t);
    if (scopes[v].size() > options.max_scope_edges) return std::nullopt;
    // Positions of v's own edges within the scope, in edge-id order (the
    // same order the black-side lookup reconstructs).
    std::vector<EdgeId> own_edges(g.white_incident(v).begin(),
                                  g.white_incident(v).end());
    std::sort(own_edges.begin(), own_edges.end());
    std::vector<std::size_t> own_pos;
    for (const EdgeId e : own_edges) {
      own_pos.push_back(static_cast<std::size_t>(
          std::lower_bound(scopes[v].begin(), scopes[v].end(), e) -
          scopes[v].begin()));
    }
    const std::uint32_t views = std::uint32_t{1} << scopes[v].size();
    for (std::uint32_t view = 1; view < views; ++view) {
      if (!realizable(g, scopes[v], view, delta_prime, r_prime, white_load,
                      black_load)) {
        continue;
      }
      // Own input edges under this view.
      std::vector<std::size_t> t_v;
      for (const std::size_t p : own_pos) {
        if (view & (std::uint32_t{1} << p)) t_v.push_back(p);
      }
      if (t_v.empty()) continue;
      auto& slots = y[v][view];
      for (std::size_t i = 0; i < t_v.size(); ++i) {
        slots.push_back(add_exactly_one(solver, alphabet, clause_count));
      }
      // White constraint when the view gives v exactly Δ' input edges.
      if (t_v.size() == delta_prime) {
        std::vector<const std::vector<Var>*> slot_vars;
        for (const auto& slot : slots) slot_vars.push_back(&slot);
        block_bad_prefixes(solver, *white, slot_vars, alphabet, clause_count);
      }
    }
  }

  // Black constraints: enumerate radius-2 flag assignments around each
  // black node; whenever the black node has exactly r' flagged edges, the
  // outputs its white endpoints produce for their views must be in C_B.
  for (NodeId b = 0; b < g.black_count(); ++b) {
    if (g.black_degree(b) < r_prime) continue;
    std::vector<EdgeId> scope;
    for (const EdgeId e : g.black_incident(b)) {
      const auto ws = white_scope(g, g.edge(e).white, t);
      scope.insert(scope.end(), ws.begin(), ws.end());
    }
    scope = sorted_unique(std::move(scope));
    if (scope.size() > options.max_scope_edges) return std::nullopt;

    // b's edge positions within the scope.
    std::vector<std::size_t> b_pos;
    for (const EdgeId e : g.black_incident(b)) {
      b_pos.push_back(static_cast<std::size_t>(
          std::lower_bound(scope.begin(), scope.end(), e) - scope.begin()));
    }

    const std::uint64_t assignments = std::uint64_t{1} << scope.size();
    for (std::uint64_t mask64 = 1; mask64 < assignments; ++mask64) {
      const std::uint32_t mask = static_cast<std::uint32_t>(mask64);
      // b must have exactly r' flagged edges.
      std::vector<EdgeId> flagged_b;
      for (std::size_t i = 0; i < b_pos.size(); ++i) {
        if (mask & (std::uint32_t{1} << b_pos[i])) {
          flagged_b.push_back(g.black_incident(b)[i]);
        }
      }
      if (flagged_b.size() != r_prime) continue;
      if (!realizable(g, scope, mask, delta_prime, r_prime, white_load,
                      black_load)) {
        continue;
      }
      // Locate each endpoint's (view, position) table entry.
      std::vector<const std::vector<Var>*> slots;
      bool all_found = true;
      for (const EdgeId e : flagged_b) {
        const NodeId v = g.edge(e).white;
        const std::uint32_t view = restrict_mask(scope, mask, scopes[v]);
        const auto it = y[v].find(view);
        if (it == y[v].end()) {
          all_found = false;  // view not realizable standalone — impossible
          break;
        }
        // Position of e among v's flagged own edges (ordered by scope pos).
        std::vector<EdgeId> own_flagged;
        for (const EdgeId f : g.white_incident(v)) {
          const std::size_t p = static_cast<std::size_t>(
              std::lower_bound(scopes[v].begin(), scopes[v].end(), f) -
              scopes[v].begin());
          if (view & (std::uint32_t{1} << p)) own_flagged.push_back(f);
        }
        std::sort(own_flagged.begin(), own_flagged.end());
        const std::size_t pos = static_cast<std::size_t>(
            std::lower_bound(own_flagged.begin(), own_flagged.end(), e) -
            own_flagged.begin());
        slots.push_back(&it->second[pos]);
      }
      if (!all_found) continue;
      // Block label tuples outside C_B.
      block_bad_prefixes(solver, *black, slots, alphabet, clause_count);
    }
  }

  const SatResult result = solver.solve();
  assert(result != SatResult::kUnknown);
  return result == SatResult::kSat;
}

std::optional<bool> one_round_white_algorithm_exists(const BipartiteGraph& g,
                                                     const Problem& pi,
                                                     const OneRoundOptions& options) {
  return t_round_white_algorithm_exists(g, pi, 1, options);
}

std::optional<bool> t_round_black_algorithm_exists(const BipartiteGraph& g,
                                                   const Problem& pi, std::size_t t,
                                                   const OneRoundOptions& options) {
  return t_round_white_algorithm_exists(transpose(g), swap_sides(pi), t, options);
}

BipartiteGraph transpose(const BipartiteGraph& g) {
  BipartiteGraph out(g.black_count(), g.white_count());
  for (const BiEdge& e : g.edges()) out.add_edge(e.black, e.white);
  return out;
}

Problem swap_sides(const Problem& pi) {
  return Problem("swap(" + pi.name() + ")", pi.registry(), pi.black(), pi.white());
}

bool zero_round_black_algorithm_exists(const BipartiteGraph& g, const Problem& pi) {
  return zero_round_white_algorithm_exists(transpose(g), swap_sides(pi));
}

}  // namespace slocal
