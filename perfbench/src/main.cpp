// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <re-chain|lift-cert|sim-csr|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//
// An untraced run (--trace 0) sets up several times, runs passes over the
// workload's item list for --seconds of pass time, judges every pass with
// the oracle outside the timed region, and reports the end-to-end metrics.
// A traced run (--trace 1) runs one untraced and one traced pass and
// reports the per-layer metrics, the tracing overhead and the share of the
// traced pass no layer span covers. The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it records the environment and how the figures were
// taken. perfbench/README.md defines every metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, reported (0 where the layer does no work) by every
// traced run. Mirrors the per_layer list of BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"re.ms", "ms"},
    {"re.harden_ms", "ms"},
    {"re.dominate_ms", "ms"},
    {"re.relax_ms", "ms"},
    {"re.dfs_nodes", "count"},
    {"re.extendable_calls", "count"},
    {"re.partials_deduped", "count"},
    {"re.configs_enumerated", "count"},
    {"re.cache_hit_ratio", "ratio"},
    {"re.cache_hits", "count"},
    {"re.cache_probes", "count"},
    {"formalism.relax_map_ms", "ms"},
    {"formalism.relax_map_nodes", "count"},
    {"formalism.relax_witness_ms", "ms"},
    {"formalism.relax_witness_nodes", "count"},
    {"cert.emit_ms", "ms"},
    {"cert.check_ms", "ms"},
    {"cert.drat_steps", "count"},
    {"discover.ms", "ms"},
    {"discover.expansions", "count"},
    {"discover.nodes_spent", "count"},
    {"lift.materialize_ms", "ms"},
    {"lift.sweep_ms", "ms"},
    {"lift.sweep_clauses", "count"},
    {"lift.sweep_conflicts", "count"},
    {"solver.encode_ms", "ms"},
    {"solver.clauses", "count"},
    {"sat.solve_ms", "ms"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.inprocess_runs", "count"},
    {"sat.subsumed_clauses", "count"},
    {"sat.vivified_clauses", "count"},
    {"sat.eliminated_vars", "count"},
    {"graph.generate_ms", "ms"},
    {"graph.generate_ms.regular", "ms"},
    {"graph.generate_ms.torus", "ms"},
    {"graph.generate_ms.cycle", "ms"},
    {"graph.edges", "count"},
    {"sim.csr_build_ms", "ms"},
    {"sim.csr_build_ms.regular", "ms"},
    {"sim.csr_build_ms.torus", "ms"},
    {"sim.csr_build_ms.cycle", "ms"},
    {"sim.rounds_ms", "ms"},
    {"sim.rounds_ms.regular", "ms"},
    {"sim.rounds_ms.torus", "ms"},
    {"sim.rounds_ms.cycle", "ms"},
    {"sim.rounds", "count"},
    {"sim.messages", "count"},
    {"sim.half_edge_rounds_per_s", "1/s"},
    {"sim.rounds_speedup_4t", "x"},
    {"serve.sequence_ms_p50", "ms"},
    {"serve.sweep_ms_p50", "ms"},
    {"serve.check_cert_ms_p50", "ms"},
    {"serve.admission_rejects", "count"},
    {"serve.sweep_memo_hits", "count"},
    {"serve.sweep_batch_groups", "count"},
    {"serve.sweep_batch_requests", "count"},
    {"net.ping_ms_p50", "ms"},
    {"net.generator_lag_ms_max", "ms"},
    {"fail_ratio", "ratio"},
    {"trace.pass_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_ms", "ms"},
};

// Set-up runs at least kMinSetups times and, while the set-ups so far took
// less than kSetupBudgetS in all, again (up to kMaxSetups), so that a cheap
// set-up's median rests on many samples taken over a few seconds: on a
// shared host, speed changes in phases of about a second.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 2.0;
// Bounds the timed passes when a broken workload's passes take no time.
constexpr int kMaxPasses = 1000;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <re-chain|lift-cert|sim-csr|serve-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n");
  return 64;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      trace_flag = std::atoi(argv[++i]);
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || (trace_flag != 0 && trace_flag != 1) || args.seconds <= 0) {
    return usage();
  }
  args.trace = trace_flag == 1;
  if (args.out_dir.empty()) args.out_dir = ".";

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  args.threads = std::min<std::size_t>(4, nproc);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool sanitizer = sanitized_build();
  if (!args.smoke && (build_type == "Debug" || build_type.empty() || sanitizer)) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a %s build "
                 "(build type '%s'); use RelWithDebInfo or Release\n",
                 sanitizer ? "sanitizer" : "non-optimized", build_type.c_str());
    return 3;
  }

  std::unique_ptr<Workload> workload;
  if (args.workload == "re-chain") {
    workload = make_re_chain(args);
  } else if (args.workload == "lift-cert") {
    workload = make_lift_cert(args);
  } else if (args.workload == "sim-csr") {
    workload = make_sim_csr(args);
  } else if (args.workload == "serve-mix") {
    workload = make_serve_mix(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }

  RunTally tally;
  // Passes run back to back; the oracle judges each one after its clock
  // stops. An untimed pass still counts towards attempted/failed.
  const auto run_pass = [&](Tracer* tracer, bool timed) {
    const auto t0 = Clock::now();
    workload->pass(tracer);
    const double pass_s = ms_since(t0) / 1000.0;
    if (timed) {
      tally.pass_s.push_back(pass_s);
      tally.measured_s += pass_s;
    }
    for (const ItemOutcome& o : workload->judge()) {
      tally.add(o, workload->latency_limit_ms(), timed);
    }
    return pass_s;
  };

  double setup_total_s = 0.0;
  for (int i = 0; i < kMinSetups || (i < kMaxSetups && setup_total_s < kSetupBudgetS); ++i) {
    if (i > 0) workload->teardown();
    const auto t0 = Clock::now();
    workload->setup();
    tally.setup_s.push_back(ms_since(t0) / 1000.0);
    setup_total_s += tally.setup_s.back();
  }

  Metrics metrics;
  std::string detail;
  if (!args.trace) {
    // The first pass of a process pays for fresh pages and thread start-up
    // on every layer; it warms up untimed so all timed passes are alike.
    // Then at least two timed passes, so a median never rests on one.
    run_pass(nullptr, false);
    for (int i = 0; i < 2 || (tally.measured_s < args.seconds && i < kMaxPasses); ++i) {
      run_pass(nullptr, true);
    }
    const Tail tail = tally.tail();
    metrics.set("setup_s", median(tally.setup_s), "s");
    metrics.set("pass_s", median(tally.pass_s), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("latency_ms_p50", tally.p50(), "ms");
    metrics.set("latency_ms_tail", tail.value, "ms");
    metrics.set("goodput_rps",
                tally.measured_s > 0
                    ? static_cast<double>(tally.ok_within_limit) / tally.measured_s
                    : 0.0,
                "1/s");
    const auto list = [](const std::vector<double>& values) {
      std::string out;
      for (const double v : values) out += (out.empty() ? "" : ", ") + std::to_string(v);
      return "[" + out + "]";
    };
    detail = "\"pass_s_each\": " + list(tally.pass_s) +
             ", \"setup_s_each\": " + list(tally.setup_s) +
             ", \"tail_percentile\": " + json_string(tail.label) +
             ", \"latency_samples\": " + std::to_string(tally.latencies_ms.size()) +
             ", \"latency_limit_ms\": " + std::to_string(workload->latency_limit_ms());
  } else {
    run_pass(nullptr, false);
    const double untraced_s = run_pass(nullptr, true);
    Tracer tracer(true);
    const double traced_s = run_pass(&tracer, true);
    std::map<std::string, double> values;
    for (const LayerMetric& m : kLayerMetrics) values[m.name] = 0.0;
    workload->layer_metrics(tracer, values);
    values["fail_ratio"] =
        tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 1.0;
    values["trace.pass_s"] = traced_s;
    values["trace.overhead_s"] = traced_s - untraced_s;
    values["trace.unattributed_ms"] = traced_s * 1000.0 - tracer.covered_ms();
    if (values.size() != std::size(kLayerMetrics)) {
      std::fprintf(stderr, "perfbench: workload reported an undeclared layer metric\n");
      return 4;
    }
    for (const LayerMetric& m : kLayerMetrics) metrics.set(m.name, values[m.name], m.unit);
    const std::string trace_path = args.out_dir + "/trace-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json";
    if (!tracer.write_json(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 4;
    }
    detail = "\"spans\": " + json_string(trace_path);
  }

  std::string notes;
  for (const std::string& note : workload->notes()) {
    notes += (notes.empty() ? "" : ", ") + json_string(note);
  }
  std::string failures;
  for (const std::string& f : tally.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    failures += (failures.empty() ? "" : ", ") + json_string(f);
  }
  std::printf(
      "{\"env\": {\"nproc\": %zu, \"engine_threads\": %zu, \"compiler\": %s, "
      "\"build_type\": %s, \"sanitizer\": %s}, \"workload\": %s, \"seed\": %llu, "
      "\"smoke\": %s, %s, \"notes\": [%s], \"failures\": [%s]}\n",
      nproc, args.threads, json_string(compiler()).c_str(), json_string(build_type).c_str(),
      sanitizer ? "true" : "false", json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.smoke ? "true" : "false",
      detail.c_str(), notes.c_str(), failures.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), metrics.json().c_str());
  std::fflush(stdout);
  return 0;
}
