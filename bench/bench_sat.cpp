// Solver substrate benchmarks: the CDCL core and the two labeling deciders
// (backtracking vs CNF) on graph instances of growing size — the practical
// limits of the "does lift(Π) admit a solution on G?" question.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/graph/generators.hpp"
#include "src/problems/classic.hpp"
#include "src/sat/solver.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

void print_header() {
  std::printf("\nSolver substrate: CDCL SAT + labeling deciders\n\n");
}

void BM_pigeonhole(benchmark::State& state) {
  const std::size_t holes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    SatSolver s;
    const std::size_t pigeons = holes + 1;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x) {
      for (auto& var : row) var = s.new_var();
    }
    for (std::size_t p = 0; p < pigeons; ++p) {
      std::vector<Lit> clause;
      for (std::size_t h = 0; h < holes; ++h) clause.push_back(Lit::positive(x[p][h]));
      s.add_clause(clause);
    }
    for (std::size_t h = 0; h < holes; ++h) {
      for (std::size_t p1 = 0; p1 < pigeons; ++p1) {
        for (std::size_t p2 = p1 + 1; p2 < pigeons; ++p2) {
          s.add_clause({Lit::negative(x[p1][h]), Lit::negative(x[p2][h])});
        }
      }
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_pigeonhole)->Arg(5)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_random_3sat(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(77);
  for (auto _ : state) {
    SatSolver s;
    std::vector<Var> vars;
    for (std::size_t v = 0; v < n; ++v) vars.push_back(s.new_var());
    const std::size_t m = static_cast<std::size_t>(4.0 * static_cast<double>(n));
    for (std::size_t c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        const Var v = vars[rng.below(n)];
        clause.push_back(rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v));
      }
      s.add_clause(clause);
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_random_3sat)->Arg(50)->Arg(100)->Arg(150)->Unit(benchmark::kMillisecond);

void BM_incremental_3sat_chunks(benchmark::State& state) {
  // The sweep-shaped workload: one accumulating solver, clauses arriving in
  // chunks with a solve after each.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(99);
    SatSolver s;
    std::vector<Var> vars;
    for (std::size_t v = 0; v < n; ++v) vars.push_back(s.new_var());
    const std::size_t m = static_cast<std::size_t>(3.6 * static_cast<double>(n));
    const std::size_t chunks = 6;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      for (std::size_t c = 0; c < m / chunks; ++c) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
          const Var v = vars[rng.below(n)];
          clause.push_back(rng.chance(0.5) ? Lit::positive(v) : Lit::negative(v));
        }
        s.add_clause(clause);
      }
      benchmark::DoNotOptimize(s.solve());
    }
  }
}
BENCHMARK(BM_incremental_3sat_chunks)->Arg(120)->Arg(160)->Unit(benchmark::kMillisecond);

void BM_labeling_backtracking(benchmark::State& state) {
  const std::size_t half = static_cast<std::size_t>(state.range(0));
  const BipartiteGraph g = make_bipartite_cycle(half);
  const Problem mm = make_maximal_matching_problem(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bipartite_labeling(g, mm));
  }
}
BENCHMARK(BM_labeling_backtracking)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_labeling_sat(benchmark::State& state) {
  const std::size_t half = static_cast<std::size_t>(state.range(0));
  const BipartiteGraph g = make_bipartite_cycle(half);
  const Problem mm = make_maximal_matching_problem(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bipartite_labeling_sat(g, mm));
  }
}
BENCHMARK(BM_labeling_sat)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_labeling_sat_regular_support(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto base = random_regular(n, 3, rng);
  const Problem so = make_sinkless_orientation_problem(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_graph_halfedge_labeling_sat(*base, so));
  }
}
BENCHMARK(BM_labeling_sat_regular_support)->Arg(12)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slocal

int main(int argc, char** argv) {
  slocal::print_header();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
