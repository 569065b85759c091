// Experiment E5 — Theorem 3.2: 0-round Supported-LOCAL solvability is
// equivalent to lift solvability.
//
// Runs the two independent deciders (direct 0-round algorithm search vs
// lift materialization + labeling solver) over a corpus and reports the
// agreement matrix; compares incremental vs from-scratch lift sweeps
// (E3's scaling path); then times lift construction/materialization.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/graph/generators.hpp"
#include "src/lift/lift.hpp"
#include "src/lift/sweep.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/solver/zero_round.hpp"
#include "src/util/combinatorics.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

void print_table() {
  std::printf(
      "\nE5  Theorem 3.2 equivalence: direct 0-round decider vs lift decider\n");
  std::size_t agree_yes = 0, agree_no = 0, disagree = 0;
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t alphabet = 2 + rng.below(2);
    LabelRegistry reg;
    for (std::size_t l = 0; l < alphabet; ++l) {
      reg.intern(std::string(1, static_cast<char>('A' + l)));
    }
    Constraint white(2), black(2);
    const auto fill = [&](Constraint& c) {
      for_each_multiset(alphabet, 2, [&](const std::vector<std::size_t>& pick) {
        if (rng.chance(0.6)) {
          std::vector<Label> labels;
          for (const std::size_t q : pick) labels.push_back(static_cast<Label>(q));
          c.add(Configuration(std::move(labels)));
        }
        return true;
      });
    };
    fill(white);
    fill(black);
    if (white.empty() || black.empty()) continue;
    const Problem pi("random", reg, white, black);
    const auto support = random_biregular(4, 3, 4, 3, rng);
    if (!support) continue;
    const bool direct = zero_round_white_algorithm_exists(*support, pi);
    const bool lifted = lift_solvable(*support, pi) == Verdict::kYes;
    if (direct != lifted) {
      ++disagree;
    } else if (direct) {
      ++agree_yes;
    } else {
      ++agree_no;
    }
  }
  std::printf("  corpus: random Π (Δ'=r'=2) on random (3,3)-biregular supports\n");
  std::printf("  both solvable: %zu   both unsolvable: %zu   DISAGREE: %zu\n",
              agree_yes, agree_no, disagree);
  std::printf("  Theorem 3.2 %s\n\n",
              disagree == 0 ? "verified on corpus" : "VIOLATED — investigate!");

  std::printf("E5b lift label-set growth (alphabet of lift = right-closed sets)\n");
  std::printf("%16s | %6s | %10s\n", "base problem", "|Σ|", "lift labels");
  const std::vector<Problem> bases = {
      make_sinkless_orientation_problem(3), make_maximal_matching_problem(3),
      make_matching_problem(4, 1, 1), make_coloring_problem(3, 2),
      make_coloring_problem(3, 3)};
  for (const Problem& base : bases) {
    const LiftedProblem lift(base, base.white_degree() + 2, base.black_degree());
    std::printf("%16s | %6zu | %10zu\n", base.name().c_str(),
                base.alphabet_size(), lift.label_sets().size());
  }
  std::printf("\n");
}

/// E3 scaling path: the same Δ=3, r=1 sweep over nested gadget supports,
/// once through the incremental engine and once from scratch, verdicts
/// cross-checked.
void print_sweep_comparison() {
  const Problem base = make_maximal_matching_problem(3);
  const std::size_t big_delta = 3, big_r = 1;
  const auto supports = make_gadget_supports(big_delta, big_r, 1, 8);

  LiftSweepOptions inc;
  inc.incremental = true;
  inc.certify_cores = true;
  const LiftSweepResult incremental =
      run_lift_sweep(base, big_delta, big_r, supports, inc);
  LiftSweepOptions scr;
  scr.incremental = false;
  const LiftSweepResult scratch =
      run_lift_sweep(base, big_delta, big_r, supports, scr);

  std::printf("E3b incremental vs from-scratch lift sweep (Δ=3, r=1, %s)\n",
              base.name().c_str());
  std::printf("%8s | %9s | %12s | %12s | %9s | %9s\n", "gadgets", "verdicts",
              "inc clauses+", "scr clauses", "inc ms", "scr ms");
  bool all_match = true;
  for (std::size_t i = 0; i < supports.size(); ++i) {
    const LiftSweepStep& a = incremental.steps[i];
    const LiftSweepStep& b = scratch.steps[i];
    const bool match = a.verdict == b.verdict;
    all_match = all_match && match;
    std::printf("%8zu | %9s | %12zu | %12zu | %9.3f | %9.3f\n", i + 1,
                match ? to_string(a.verdict) : "MISMATCH", a.new_clauses,
                b.new_clauses, a.wall_ms, b.wall_ms);
  }
  std::printf("  totals: clauses %zu vs %zu, wall %.3f ms vs %.3f ms (%s)\n\n",
              incremental.total_clauses, scratch.total_clauses,
              incremental.total_wall_ms, scratch.total_wall_ms,
              all_match ? "verdicts agree" : "VERDICTS DISAGREE — investigate!");
}

void BM_lift_construct(benchmark::State& state) {
  const Problem base = make_coloring_problem(3, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LiftedProblem(base, 5, 2));
  }
}
BENCHMARK(BM_lift_construct)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_lift_materialize(benchmark::State& state) {
  const Problem base = make_matching_problem(3, 1, 1);
  const std::size_t big_delta = static_cast<std::size_t>(state.range(0));
  const LiftedProblem lift(base, big_delta, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lift.materialize());
  }
}
BENCHMARK(BM_lift_materialize)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_lift_sweep(benchmark::State& state) {
  const Problem base = make_maximal_matching_problem(3);
  const auto supports =
      make_gadget_supports(3, 1, 1, static_cast<std::size_t>(state.range(0)));
  LiftSweepOptions options;
  options.incremental = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_lift_sweep(base, 3, 1, supports, options));
  }
}
BENCHMARK(BM_lift_sweep)
    ->Args({6, 1})
    ->Args({6, 0})
    ->Args({8, 1})
    ->ArgNames({"gadgets", "incremental"})
    ->Unit(benchmark::kMillisecond);

void BM_zero_round_decider(benchmark::State& state) {
  const Problem so = make_sinkless_orientation_problem(2);
  const BipartiteGraph g = make_bipartite_cycle(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zero_round_white_algorithm_exists(g, so));
  }
}
BENCHMARK(BM_zero_round_decider)->Arg(3)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slocal

int main(int argc, char** argv) {
  slocal::print_table();
  slocal::print_sweep_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
