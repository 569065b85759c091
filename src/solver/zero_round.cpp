#include "src/solver/zero_round.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "src/solver/cnf_encoding.hpp"
#include "src/util/combinatorics.hpp"

namespace slocal {

namespace {

/// All bitmasks over `degree` positions with 1..max_bits bits set.
std::vector<std::uint32_t> local_input_masks(std::size_t degree, std::size_t max_bits) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t mask = 1; mask < (1u << degree); ++mask) {
    const std::size_t bits = static_cast<std::size_t>(__builtin_popcount(mask));
    if (bits >= 1 && bits <= max_bits) out.push_back(mask);
  }
  return out;
}

}  // namespace

bool zero_round_white_algorithm_exists(const BipartiteGraph& g, const Problem& pi,
                                       ZeroRoundStats* stats, SearchBudget* budget) {
  const std::size_t delta_prime = pi.white_degree();
  const std::size_t r_prime = pi.black_degree();
  const std::size_t alphabet = pi.alphabet_size();
  SatSolver solver;
  std::size_t clause_count = 0;
  std::size_t scenario_count = 0;
  const auto fill_stats = [&](Verdict verdict) {
    if (stats != nullptr) {
      stats->variables = solver.var_count();
      stats->clauses = clause_count;
      stats->black_scenarios = scenario_count;
      stats->verdict = verdict;
    }
  };
  const auto white = pi.white().automaton();
  const auto black = pi.black().automaton();
  if (!white || !black) {  // past the index cap: nothing is encoded
    fill_stats(Verdict::kExhausted);
    return false;
  }

  // y[v][mask] = per set-position (ascending bit order) the label variables.
  // mask bits index into g.white_incident(v).
  std::vector<std::unordered_map<std::uint32_t, std::vector<std::vector<Var>>>> y(
      g.white_count());
  for (NodeId v = 0; v < g.white_count(); ++v) {
    const std::size_t deg = g.white_degree(v);
    assert(deg <= 31);
    for (const std::uint32_t mask : local_input_masks(deg, delta_prime)) {
      const std::size_t bits = static_cast<std::size_t>(__builtin_popcount(mask));
      auto& slots = y[v][mask];
      for (std::size_t p = 0; p < bits; ++p) {
        slots.push_back(add_exactly_one(solver, alphabet, clause_count));
      }
      // White constraint when the local input has exactly Δ' edges.
      if (bits == delta_prime) {
        std::vector<const std::vector<Var>*> slot_vars;
        for (const auto& slot : slots) slot_vars.push_back(&slot);
        block_bad_prefixes(solver, *white, slot_vars, alphabet, clause_count, budget);
      }
    }
  }

  // Position of edge e within v's incidence list.
  const auto edge_position = [&](NodeId v, EdgeId e) {
    const auto inc = g.white_incident(v);
    return static_cast<std::size_t>(std::find(inc.begin(), inc.end(), e) - inc.begin());
  };
  // Position of edge e within mask's set bits.
  const auto mask_position = [](std::uint32_t mask, std::size_t bit) {
    return static_cast<std::size_t>(
        __builtin_popcount(mask & ((1u << bit) - 1u)));
  };

  // Black scenarios.
  std::vector<std::size_t> black_load(g.black_count());
  for (NodeId b = 0; b < g.black_count(); ++b) {
    const auto inc_b = g.black_incident(b);
    if (inc_b.size() < r_prime) continue;
    for_each_subset(inc_b.size(), r_prime, [&](const std::vector<std::size_t>& pick) {
      // The chosen black edges and their white endpoints.
      std::vector<EdgeId> chosen;
      std::vector<NodeId> whites;
      for (const std::size_t p : pick) {
        chosen.push_back(inc_b[p]);
        whites.push_back(g.edge(inc_b[p]).white);
      }
      // Masks per white endpoint containing its chosen edge.
      std::vector<std::vector<std::uint32_t>> mask_options(r_prime);
      for (std::size_t j = 0; j < r_prime; ++j) {
        const std::size_t bit = edge_position(whites[j], chosen[j]);
        for (const auto& [mask, slots] : y[whites[j]]) {
          (void)slots;
          if (mask & (1u << bit)) mask_options[j].push_back(mask);
        }
        std::sort(mask_options[j].begin(), mask_options[j].end());
      }
      // Every family of masks; filter by realizability (black degrees of the
      // union <= r').
      std::vector<std::size_t> family(r_prime, 0);
      auto enumerate = [&](auto&& self, std::size_t j) -> void {
        if (j == r_prime) {
          // Realizability: count union edges per black node.
          std::fill(black_load.begin(), black_load.end(), 0);
          for (std::size_t t = 0; t < r_prime; ++t) {
            const std::uint32_t mask = mask_options[t][family[t]];
            const auto inc_w = g.white_incident(whites[t]);
            for (std::size_t bit = 0; bit < inc_w.size(); ++bit) {
              if (mask & (1u << bit)) ++black_load[g.edge(inc_w[bit]).black];
            }
          }
          if (std::any_of(black_load.begin(), black_load.end(),
                          [&](std::size_t load) { return load > r_prime; })) {
            return;
          }
          ++scenario_count;
          // Block bad label tuples for (v_j, T_j, e_j).
          std::vector<const std::vector<Var>*> slot_vars(r_prime);
          for (std::size_t i = 0; i < r_prime; ++i) {
            const std::uint32_t mask = mask_options[i][family[i]];
            const std::size_t bit = edge_position(whites[i], chosen[i]);
            slot_vars[i] = &y[whites[i]].at(mask)[mask_position(mask, bit)];
          }
          block_bad_prefixes(solver, *black, slot_vars, alphabet, clause_count, budget);
          return;
        }
        for (family[j] = 0; family[j] < mask_options[j].size(); ++family[j]) {
          if (budget != nullptr && budget->halted()) return;
          self(self, j + 1);
        }
      };
      enumerate(enumerate, 0);
      // Stop enumerating scenarios once the budget tripped.
      return budget == nullptr || !budget->halted();
    });
  }

  // A budget tripped mid-encoding leaves black scenarios unconstrained; a
  // kSat model would be unsound, so report exhausted without solving.
  if (budget != nullptr && budget->halted()) {
    fill_stats(Verdict::kExhausted);
    return false;
  }
  const SatResult result = solver.solve(0, budget);
  assert(budget != nullptr || result != SatResult::kUnknown);
  if (result == SatResult::kUnknown) {
    fill_stats(Verdict::kExhausted);
    return false;
  }
  fill_stats(result == SatResult::kSat ? Verdict::kYes : Verdict::kNo);
  return result == SatResult::kSat;
}

}  // namespace slocal
