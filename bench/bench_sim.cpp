// Simulator substrate benchmarks: raw round-execution throughput, the
// measured round complexities of every Supported-model algorithm on common
// support families (the numbers the experiment tables cite), and the
// million-node fast-path cases behind BENCH_SIM.json (E-SIM in
// EXPERIMENTS.md, gated in CI by tools/check_bench_sim.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/metrics.hpp"
#include "src/graph/transforms.hpp"
#include "src/problems/verifiers.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_graph.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/sim/network.hpp"
#include "src/sim/supported.hpp"
#include "src/util/rng.hpp"

namespace slocal {
namespace {

void print_table() {
  std::printf(
      "\nSimulator: measured Supported-model round complexities\n"
      "%22s %6s %3s | %8s | %6s\n",
      "algorithm", "n", "Δ", "rounds", "valid");
  Rng rng(123);
  const auto g = random_regular(200, 6, rng);
  if (!g) return;
  const std::vector<bool> input(g->edge_count(), true);
  {
    Network net(*g, input);
    ColorClassMis alg;
    const auto r = net.run(alg);
    std::printf("%22s %6zu %3zu | %8zu | %6s\n", "color-class MIS",
                g->node_count(), g->max_degree(), r.rounds,
                is_mis(*g, alg.in_mis()) ? "yes" : "NO");
  }
  {
    Network net(*g, input);
    ArbdefectiveColoring alg(3);
    const auto r = net.run(alg);
    const bool ok = is_arbdefective_coloring(*g, alg.colors(), alg.edge_tails(net),
                                             g->max_degree() / 3, 3);
    std::printf("%22s %6zu %3zu | %8zu | %6s\n", "arbdefective (c=3)",
                g->node_count(), g->max_degree(), r.rounds, ok ? "yes" : "NO");
  }
  for (const std::size_t beta : {1u, 2u}) {
    Network net(*g, input);
    BetaRulingSet alg(beta);
    const auto r = net.run(alg, 5000);
    char name[32];
    std::snprintf(name, sizeof(name), "(2,%zu)-ruling set", beta);
    std::printf("%22s %6zu %3zu | %8zu | %6s\n", name, g->node_count(),
                g->max_degree(), r.rounds,
                is_beta_ruling_set(*g, alg.in_set(), beta) ? "yes" : "NO");
  }
  {
    const BipartiteGraph cover = bipartite_double_cover(*g);
    const Graph support = cover.to_graph();
    const std::vector<bool> all(support.edge_count(), true);
    Network net(support, all);
    std::vector<std::int32_t> colors(support.node_count(), 0);
    for (std::size_t v = cover.white_count(); v < support.node_count(); ++v) {
      colors[v] = 1;
    }
    net.set_colors(colors);
    ProposalMatching alg;
    const auto r = net.run(alg, 500);
    const auto matched = alg.matched_edges(net);
    std::printf("%22s %6zu %3zu | %8zu | %6s\n", "proposal matching",
                support.node_count(), support.max_degree(), r.rounds,
                is_maximal_matching(support, matched) ? "yes" : "NO");
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Fast-path cases: the CSR batched simulator on streamed 10^5..10^7-node
// instances. Everything deterministic (rounds, messages, output
// fingerprints) is recorded in BENCH_SIM.json and gated exactly against the
// committed baseline; wall clock and RSS are reported, never gated.

/// A message-exchanging algorithm that runs a fixed number of rounds —
/// the pure round-throughput workload for the 10^7-node case, where an
/// O(log n)-round algorithm would dominate the bench's wall budget.
class FixedRoundSpin : public Algorithm {
 public:
  explicit FixedRoundSpin(std::size_t rounds) : rounds_(rounds) {}
  void on_start(const NodeContext&, std::vector<Message>& out, bool&) override {
    for (auto& m : out) m = {1};
  }
  void on_round(const NodeContext& node, std::size_t round,
                const std::vector<Message>& inbox, std::vector<Message>& out,
                bool& halt) override {
    std::int64_t acc = static_cast<std::int64_t>(node.uid);
    for (const auto& m : inbox) {
      if (!m.empty()) acc += m[0];
    }
    for (auto& m : out) m = {acc};
    halt = round >= rounds_;
  }

 private:
  std::size_t rounds_;
};

std::uint64_t fp_mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Order-sensitive digest of a run's observable output: per-node halt
/// rounds plus the algorithm-specific bits. Bit-identical across thread
/// counts by the CsrNetwork determinism contract.
std::uint64_t fingerprint_run(const CsrNetwork& net,
                              const std::vector<bool>& output_bits) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::size_t hr : net.halt_rounds()) h = fp_mix(h, hr);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < output_bits.size(); ++i) {
    word = (word << 1) | (output_bits[i] ? 1u : 0u);
    if (i % 64 == 63) {
      h = fp_mix(h, word);
      word = 0;
    }
  }
  return fp_mix(h, word);
}

struct SimCase {
  std::string name;
  std::string algorithm;
  std::size_t n = 0;
  std::size_t delta = 0;
  std::size_t edges = 0;
  std::size_t threads = 1;
  std::size_t rounds = 0;
  bool completed = false;
  std::uint64_t messages = 0;
  std::uint64_t fingerprint = 0;
  double wall_ms = 0.0;        // run() only; excludes generation
  double gen_wall_ms = 0.0;    // streaming generation + CSR build
  double csr_build_wall_ms = 0.0;  // the CSR build part of gen_wall_ms
  double per_round_wall_ms = 0.0;
  double half_edge_rounds_per_sec = 0.0;  // rounds x half-edges / wall
};

struct ThreadInvariance {
  std::string case_name;
  std::size_t n = 0;
  bool identical = false;  // threads=1 vs threads=0 (all cores)
  std::uint64_t fingerprint = 0;
};

struct ReferenceDiff {
  std::string case_name;
  std::size_t n = 0;
  std::size_t rounds = 0;
  bool identical = false;  // CsrNetwork vs reference Network, all observables
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 elsewhere.
double peak_rss_mb() {
  double mb = 0.0;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mb;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Runs `alg` on `net` and fills the measured half of a SimCase.
template <typename Alg, typename Output>
SimCase run_sim_case(std::string name, std::string algorithm, CsrNetwork& net,
                     Alg& alg, std::size_t threads, std::size_t max_rounds,
                     Output output_bits) {
  SimCase c;
  c.name = std::move(name);
  c.algorithm = std::move(algorithm);
  c.n = net.node_count();
  c.delta = net.graph().max_degree();
  c.edges = net.graph().edge_count();
  c.threads = threads;
  CsrRunOptions options;
  options.threads = threads;
  options.max_rounds = max_rounds;
  const auto t0 = std::chrono::steady_clock::now();
  const CsrRunResult r = net.run(alg, options);
  c.wall_ms = ms_since(t0);
  c.rounds = r.rounds;
  c.completed = r.completed;
  c.messages = r.messages_sent;
  c.fingerprint = fingerprint_run(net, output_bits(alg));
  if (!r.error.empty()) std::printf("  ERROR %s: %s\n", c.name.c_str(), r.error.c_str());
  if (c.rounds > 0) c.per_round_wall_ms = c.wall_ms / static_cast<double>(c.rounds);
  if (c.wall_ms > 0.0) {
    c.half_edge_rounds_per_sec = static_cast<double>(c.rounds) *
                                 static_cast<double>(2 * c.edges) /
                                 (c.wall_ms / 1000.0);
  }
  return c;
}

void print_sim_case(const SimCase& c) {
  std::printf("%16s n=%-8zu Δ=%zu t=%zu | %5zu rounds | %8.1f ms (%.2f ms/round, %.1fM he·r/s) | fp=%016llx\n",
              c.name.c_str(), c.n, c.delta, c.threads, c.rounds, c.wall_ms,
              c.per_round_wall_ms, c.half_edge_rounds_per_sec / 1e6,
              static_cast<unsigned long long>(c.fingerprint));
}

/// Builds the streamed edge list into a CSR graph. `*gen_ms` is the wall
/// time since `t0` (generation plus build), `*csr_ms` the build alone.
std::optional<CsrGraph> finish_timed(CsrStreamBuilder& builder,
                                     std::chrono::steady_clock::time_point t0,
                                     CsrBuildError* error, double* gen_ms,
                                     double* csr_ms) {
  const auto t1 = std::chrono::steady_clock::now();
  auto csr = builder.finish(error);
  *csr_ms = ms_since(t1);
  *gen_ms = ms_since(t0);
  return csr;
}

CsrGraph build_streamed_regular(std::size_t n, std::size_t degree,
                                std::uint64_t seed, double* gen_ms,
                                double* csr_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(seed);
  CsrStreamBuilder builder(n);
  const bool ok = stream_random_regular(
      n, degree, rng, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
  CsrBuildError error;
  auto csr = ok ? finish_timed(builder, t0, &error, gen_ms, csr_ms) : std::nullopt;
  if (!csr) {
    std::printf("  ERROR streaming regular(%zu,%zu): %s\n", n, degree,
                error.message.c_str());
    return CsrGraph{};
  }
  return std::move(*csr);
}

CsrGraph build_streamed_torus(std::size_t w, std::size_t h, double* gen_ms,
                              double* csr_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  CsrStreamBuilder builder(w * h);
  stream_torus(w, h, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
  CsrBuildError error;
  auto csr = finish_timed(builder, t0, &error, gen_ms, csr_ms);
  if (!csr) {
    std::printf("  ERROR streaming torus(%zu,%zu): %s\n", w, h,
                error.message.c_str());
    return CsrGraph{};
  }
  return std::move(*csr);
}

/// Small-instance differential spot check (the full harness lives in
/// tests/sim_diff_test.cpp; this pins "fast == reference" inside the bench
/// artifact itself so the CI gate sees it next to the throughput numbers).
ReferenceDiff run_reference_diff() {
  ReferenceDiff d;
  d.case_name = "regular-400-luby";
  Rng rng(515);
  const auto g = random_regular(400, 4, rng);
  if (!g) return d;
  d.n = g->node_count();
  LubyMis ref_alg(99);
  Network net(*g);
  const RunResult ref = net.run(ref_alg, 10'000);
  LubyMis fast_alg(99);
  CsrNetwork csr(CsrGraph::from_graph(*g));
  CsrRunOptions options;
  options.threads = 0;  // all cores — the adversarial setting
  const CsrRunResult fast = csr.run(fast_alg, options);
  d.rounds = fast.rounds;
  d.identical = fast.error.empty() && fast.completed == ref.completed &&
                fast.rounds == ref.rounds &&
                fast.messages_sent == ref.messages_sent &&
                csr.halt_rounds() == net.halt_rounds() &&
                fast_alg.in_mis() == ref_alg.in_mis();
  return d;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void write_sim_json(const std::vector<SimCase>& cases,
                    const ThreadInvariance& invariance,
                    const ReferenceDiff& diff) {
  std::FILE* f = std::fopen("BENCH_SIM.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_SIM.json\n");
    return;
  }
  JsonWriter json(f);
  json.field("bench", "bench_sim");
  json.field("schema_version", 1);
  json.field("hardware_threads", std::thread::hardware_concurrency());
  json.begin_array("cases");
  for (const SimCase& c : cases) {
    json.begin_object();
    json.field("name", c.name);
    json.field("algorithm", c.algorithm);
    json.field("n", c.n);
    json.field("delta", c.delta);
    json.field("edges", c.edges);
    json.field("threads", c.threads);
    json.field("rounds", c.rounds);
    json.field("completed", c.completed);
    json.field("messages", c.messages);
    json.field("fingerprint", hex64(c.fingerprint));
    json.field("wall_ms", c.wall_ms);
    json.field("gen_wall_ms", c.gen_wall_ms);
    json.field("csr_build_wall_ms", c.csr_build_wall_ms);
    json.field("per_round_wall_ms", c.per_round_wall_ms);
    json.field("half_edge_rounds_per_sec", c.half_edge_rounds_per_sec, 0);
    json.end();
  }
  json.end();
  json.begin_object("thread_invariance");
  json.field("case", invariance.case_name);
  json.field("n", invariance.n);
  json.begin_array("threads_compared");
  json.field("", 1);
  json.field("", 0);
  json.end();
  json.field("identical", invariance.identical);
  json.field("fingerprint", hex64(invariance.fingerprint));
  json.end();
  json.begin_object("reference_diff");
  json.field("case", diff.case_name);
  json.field("n", diff.n);
  json.field("rounds", diff.rounds);
  json.field("identical", diff.identical);
  json.end();
  json.field("peak_rss_mb", peak_rss_mb(), 1);
  json.finish();
  std::fclose(f);
}

void run_fast_cases() {
  std::printf("Fast path: CSR batched simulator on streamed instances\n");
  std::vector<SimCase> cases;

  // 10^5-node Δ-regular support, Luby MIS (O(log n) rounds).
  {
    double gen_ms = 0.0, csr_ms = 0.0;
    CsrGraph g = build_streamed_regular(100'000, 6, 71, &gen_ms, &csr_ms);
    if (g.node_count() > 0) {
      CsrNetwork net(std::move(g));
      LubyMis alg(2024);
      auto c = run_sim_case("regular-1e5", "luby-mis", net, alg, 1, 10'000,
                            [](const LubyMis& a) { return a.in_mis(); });
      c.gen_wall_ms = gen_ms;
      c.csr_build_wall_ms = csr_ms;
      print_sim_case(c);
      cases.push_back(std::move(c));
    }
  }

  // 10^6-node Δ-regular support (the acceptance case): Luby MIS to
  // completion at threads=1 and threads=0; the fingerprints must agree.
  ThreadInvariance invariance;
  {
    double gen_ms = 0.0, csr_ms = 0.0;
    CsrGraph g = build_streamed_regular(1'000'000, 4, 72, &gen_ms, &csr_ms);
    if (g.node_count() > 0) {
      CsrNetwork net(std::move(g));
      LubyMis alg1(2025);
      auto c1 = run_sim_case("regular-1e6", "luby-mis", net, alg1, 1, 10'000,
                             [](const LubyMis& a) { return a.in_mis(); });
      c1.gen_wall_ms = gen_ms;
      c1.csr_build_wall_ms = csr_ms;
      print_sim_case(c1);
      LubyMis alg_all(2025);
      auto c_all =
          run_sim_case("regular-1e6-allcores", "luby-mis", net, alg_all, 0,
                       10'000, [](const LubyMis& a) { return a.in_mis(); });
      print_sim_case(c_all);
      invariance.case_name = "regular-1e6";
      invariance.n = c1.n;
      invariance.identical = c1.fingerprint == c_all.fingerprint &&
                             c1.rounds == c_all.rounds &&
                             c1.messages == c_all.messages && c1.completed &&
                             c_all.completed;
      invariance.fingerprint = c1.fingerprint;
      cases.push_back(std::move(c1));
      cases.push_back(std::move(c_all));
    }
  }

  // 10^7-node torus, fixed 8-round message exchange: pure round-throughput
  // at the largest scale (Luby here would dominate the bench's wall budget).
  {
    double gen_ms = 0.0, csr_ms = 0.0;
    CsrGraph g = build_streamed_torus(2'500, 4'000, &gen_ms, &csr_ms);
    if (g.node_count() > 0) {
      CsrNetwork net(std::move(g));
      FixedRoundSpin alg(8);
      auto c = run_sim_case("torus-1e7", "spin-8", net, alg, 1, 100,
                            [](const Algorithm&) { return std::vector<bool>{}; });
      c.gen_wall_ms = gen_ms;
      c.csr_build_wall_ms = csr_ms;
      print_sim_case(c);
      cases.push_back(std::move(c));
    }
  }

  const ReferenceDiff diff = run_reference_diff();
  std::printf("%16s n=%-8zu | fast==reference: %s\n", diff.case_name.c_str(),
              diff.n, diff.identical ? "yes" : "NO");
  std::printf("%16s n=%-8zu | threads 1 vs all: %s\n",
              invariance.case_name.c_str(), invariance.n,
              invariance.identical ? "bit-identical" : "DIVERGED");

  write_sim_json(cases, invariance, diff);
  std::printf("wrote BENCH_SIM.json (peak RSS %.1f MB)\n\n", peak_rss_mb());
}

void BM_round_throughput(benchmark::State& state) {
  // A do-nothing algorithm running for a fixed number of rounds: measures
  // the simulator's message-routing overhead.
  class Spin : public Algorithm {
   public:
    void on_start(const NodeContext&, std::vector<Message>& out, bool&) override {
      for (auto& m : out) m = {1};
    }
    void on_round(const NodeContext&, std::size_t round, const std::vector<Message>&,
                  std::vector<Message>& out, bool& halt) override {
      for (auto& m : out) m = {static_cast<std::int64_t>(round)};
      halt = round >= 50;
    }
  };
  Rng rng(1);
  const auto g = random_regular(static_cast<std::size_t>(state.range(0)), 6, rng);
  for (auto _ : state) {
    Network net(*g);
    Spin alg;
    benchmark::DoNotOptimize(net.run(alg, 100));
  }
  state.SetItemsProcessed(state.iterations() * 50 *
                          static_cast<std::int64_t>(g->edge_count()) * 2);
}
BENCHMARK(BM_round_throughput)->Arg(100)->Arg(400)->Arg(1600)->Unit(benchmark::kMillisecond);

void BM_supported_mis_scaling(benchmark::State& state) {
  Rng rng(2);
  const auto g = random_regular(static_cast<std::size_t>(state.range(0)), 6, rng);
  const std::vector<bool> input(g->edge_count(), true);
  for (auto _ : state) {
    Network net(*g, input);
    ColorClassMis alg;
    benchmark::DoNotOptimize(net.run(alg));
  }
}
BENCHMARK(BM_supported_mis_scaling)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_proposal_matching_scaling(benchmark::State& state) {
  Rng rng(3);
  const auto base = random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
  const BipartiteGraph cover = bipartite_double_cover(*base);
  const Graph support = cover.to_graph();
  const std::vector<bool> input(support.edge_count(), true);
  std::vector<std::int32_t> colors(support.node_count(), 0);
  for (std::size_t v = cover.white_count(); v < support.node_count(); ++v) {
    colors[v] = 1;
  }
  for (auto _ : state) {
    Network net(support, input);
    net.set_colors(colors);
    ProposalMatching alg;
    benchmark::DoNotOptimize(net.run(alg, 500));
  }
}
BENCHMARK(BM_proposal_matching_scaling)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slocal

int main(int argc, char** argv) {
  slocal::print_table();
  slocal::run_fast_cases();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
