// Experiment E2 — the round elimination engine: Lemma 4.5 steps, Lemma 5.4
// fixed points, and engine scaling in Δ and |Σ|.
//
// Prints the per-step verification table (RE alphabet/constraint sizes and
// whether the relaxation witness was found) that underlies Corollary 4.6's
// lower-bound sequences, with REStats perf counters per row; then times RE
// itself (parallel default vs forced-serial baseline).
//
// Machine-readable output: BENCH_RE.json in the working directory (schema
// documented in EXPERIMENTS.md) so the perf trajectory is comparable
// across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_writer.hpp"
#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/cert/format.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/graph/generators.hpp"
#include "src/lift/sweep.hpp"
#include "src/net/batcher.hpp"
#include "src/net/client.hpp"
#include "src/net/tcp_server.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/coloring_family.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"
#include "src/serve/server.hpp"
#include "src/solver/portfolio.hpp"

namespace slocal {
namespace {

struct E2Row {
  std::size_t delta = 0, x = 0, y = 0;
  bool computed = false;
  std::size_t sigma = 0, white = 0, black = 0;
  bool relaxation_verified = false;
  double wall_ms = 0.0;         // round_eliminate, default (parallel) engine
  double serial_wall_ms = 0.0;  // round_eliminate, threads = 1
  REStats stats;                // counters of the default run
};

/// E2d — a deliberately tiny node budget on the Δ=6 E2 row: the engine
/// must abort quickly (well under the row's full runtime) with the perf
/// counters intact at the point of exhaustion.
struct BudgetDemo {
  std::size_t delta = 6, x = 1, y = 2;
  std::uint64_t max_nodes = 512;
  bool exhausted = false;
  std::uint64_t dfs_nodes_at_exhaustion = 0;
  double wall_ms = 0.0;
};

/// E2e — the racing portfolio on a concrete labeling instance.
struct PortfolioDemo {
  std::string verdict;
  std::string winner;
  std::uint64_t nodes = 0;
  std::uint64_t conflicts = 0;
  double wall_ms = 0.0;
};

/// E2f — the incremental lift sweep vs the from-scratch baseline on the E3
/// workload (lift_{3,1}(MM_3) over nested gadget supports). The gated
/// invariant is verdicts_match; the tracked payoff is clauses/wall-time
/// saved by assumption-guarded reuse.
struct SweepDemo {
  std::size_t big_delta = 3, big_r = 3;
  std::size_t supports = 0;
  bool verdicts_match = false;
  std::size_t incremental_clauses = 0, scratch_clauses = 0;
  std::uint64_t incremental_conflicts = 0, scratch_conflicts = 0;
  double incremental_wall_ms = 0.0, scratch_wall_ms = 0.0;
  std::size_t cores_certified = 0;
};

/// E2g — the cross-step RE cache on the E2 sequence set (Corollary 4.6
/// matching sequence), verified with cache off, cache on (cold), and cache
/// on (warm, same cache again). The gated invariants are verdicts_match,
/// an all-hit warm run with 0 DFS nodes, and the warm/cold wall ratio; plus
/// intra-run short-circuiting on a fixed-point chain (Π_4(3) repeated under
/// fresh renamings, the Lemma 5.4 workload).
struct CacheDemo {
  std::size_t steps = 0;
  bool verdicts_match = false;
  std::uint64_t cold_hits = 0, cold_misses = 0;
  std::uint64_t warm_hits = 0, warm_misses = 0;
  std::uint64_t warm_dfs_nodes = 0;
  double off_wall_ms = 0.0, cold_wall_ms = 0.0, warm_wall_ms = 0.0;
  double warm_canonical_ms = 0.0;
  std::size_t chain_steps = 0;
  std::uint64_t chain_hits = 0;  // steps answered within one cold chain run
  std::uint64_t chain_dfs_nodes_after_first = 0;
};

/// E2h — proof certificates (src/cert): emission and independent checking
/// on two of the acceptance instances — the Δ'=3 matching sequence
/// (Corollary 4.6, configuration-mapping witnesses) and the C_3 lift-UNSAT
/// claim (Theorem 3.2 side, DRAT refutation checked by RUP only). The gated
/// invariants are the three validity flags; the tracked payoff is that
/// checking stays far cheaper than emission (the checker re-derives
/// witnesses and proofs, never re-runs the searches).
struct CertDemo {
  std::size_t sequence_steps = 0;
  bool sequence_valid = false;
  double sequence_emit_wall_ms = 0.0;
  double sequence_check_wall_ms = 0.0;
  std::size_t sequence_bytes = 0;
  std::size_t lift_proof_steps = 0;
  bool lift_valid = false;
  double lift_emit_wall_ms = 0.0;
  double lift_check_wall_ms = 0.0;
  std::size_t lift_bytes = 0;
  bool roundtrip_valid = false;  // save -> load -> recheck, both kinds
};

/// E2j — the lower-bound service under load and under injected faults: a
/// sequential verdict phase, an overload burst that must shed at admission,
/// a deliberately torn checkpoint, and a second server instance that must
/// recover from the previous good generation and reproduce every verdict
/// from its warm cache. The gated invariants are verdicts_match,
/// admission_rejects > 0, checkpoint_recoveries >= 1, and
/// final_checkpoint_valid; requests_per_sec is reported, not gated.
struct ServeDemo {
  std::size_t requests = 0;  // total request lines sent in run 1
  std::uint64_t ok = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t checkpoint_failures = 0;
  std::string recovered_from;  // run 2's recovery source
  std::uint64_t checkpoint_recoveries = 0;
  bool verdicts_match = false;
  bool final_checkpoint_valid = false;
  std::uint64_t warm_cache_hits = 0;
  double requests_per_sec = 0.0;
  double wall_ms = 0.0;
  // Socket phase (schema v9): the same sweep workload once per-request
  // through a plain server (the unbatched reference) and once over N
  // concurrent loopback connections through TcpServer + SweepBatcher. The
  // gated invariants are socket_verdicts_match (socket responses reproduce
  // the reference verdicts token-for-token), socket_batch_groups >= 1, and
  // socket_batch_peak >= 2 (the dispatcher really coalesced concurrent
  // sweeps). No throughput is reported: the batch window, not the server,
  // sets socket_wall_ms.
  std::size_t socket_connections = 0;
  std::size_t socket_requests = 0;
  std::uint64_t socket_batch_groups = 0;
  std::uint64_t socket_batched_requests = 0;
  std::uint64_t socket_batch_peak = 0;
  std::uint64_t socket_single_dispatch = 0;
  std::uint64_t unbatched_dispatches = 0;  // reference run, one solve per sweep
  bool socket_verdicts_match = false;
  double socket_wall_ms = 0.0;
};

/// E2k — the automatic discovery driver on the E4 rediscovery workloads:
/// the 2-coloring fixed point (pump, target 3) and the Δ'=3 matching chain
/// (pool move, target 1). The gated invariants are certs_valid (every
/// emitted certificate passes check_certificate) and thread_invariance
/// (threads=4 reproduces the threads=1 discovery log and certificate bytes
/// exactly); walls and counters are reported, never gated.
struct DiscoverRun {
  std::size_t target = 0;
  std::string status;
  bool pumped = false;
  std::uint64_t expansions = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t nodes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t certs_emitted = 0;
  std::size_t cert_bytes = 0;
  double wall_ms = 0.0;
};

struct DiscoverDemo {
  DiscoverRun coloring;  // 2-coloring pump
  DiscoverRun matching;  // Δ'=3 matching chain
  bool certs_valid = false;
  bool thread_invariance = false;
};

void write_json(const std::vector<E2Row>& rows, const REStats& totals,
                double table_wall_ms, double serial_table_wall_ms,
                const BudgetDemo& budget_demo, const PortfolioDemo& portfolio_demo,
                const SweepDemo& sweep_demo, const CacheDemo& cache_demo,
                const CertDemo& cert_demo, const ServeDemo& serve_demo,
                const DiscoverDemo& discover_demo) {
  std::FILE* f = std::fopen("BENCH_RE.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_RE.json\n");
    return;
  }
  JsonWriter json(f);
  json.field("bench", "bench_re");
  json.field("schema_version", 10);
  json.field("hardware_threads", std::thread::hardware_concurrency());
  json.field("e2_table_wall_ms", table_wall_ms);
  json.field("e2_table_serial_wall_ms", serial_table_wall_ms);
  json.begin_array("e2_rows");
  for (const E2Row& r : rows) {
    json.begin_object();
    json.field("delta", r.delta);
    json.field("x", r.x);
    json.field("y", r.y);
    json.field("computed", r.computed);
    json.field("sigma", r.sigma);
    json.field("white", r.white);
    json.field("black", r.black);
    json.field("relaxation_verified", r.relaxation_verified);
    json.field("wall_ms", r.wall_ms);
    json.field("serial_wall_ms", r.serial_wall_ms);
    json.begin_object("stats");
    json.fields(r.stats);
    json.end();
    json.end();
  }
  json.end();
  json.begin_object("e2_totals");
  json.fields(totals);
  json.end();

  json.begin_object("budget_demo");
  json.field("delta", budget_demo.delta);
  json.field("x", budget_demo.x);
  json.field("y", budget_demo.y);
  json.field("max_nodes", budget_demo.max_nodes);
  json.field("exhausted", budget_demo.exhausted);
  json.field("dfs_nodes_at_exhaustion", budget_demo.dfs_nodes_at_exhaustion);
  json.field("wall_ms", budget_demo.wall_ms);
  json.end();

  json.begin_object("portfolio_demo");
  json.field("verdict", portfolio_demo.verdict);
  json.field("winner", portfolio_demo.winner);
  json.field("nodes", portfolio_demo.nodes);
  json.field("conflicts", portfolio_demo.conflicts);
  json.field("wall_ms", portfolio_demo.wall_ms);
  json.end();

  json.begin_object("incremental_sweep_demo");
  json.field("big_delta", sweep_demo.big_delta);
  json.field("big_r", sweep_demo.big_r);
  json.field("supports", sweep_demo.supports);
  json.field("verdicts_match", sweep_demo.verdicts_match);
  json.field("incremental_clauses", sweep_demo.incremental_clauses);
  json.field("scratch_clauses", sweep_demo.scratch_clauses);
  json.field("incremental_conflicts", sweep_demo.incremental_conflicts);
  json.field("scratch_conflicts", sweep_demo.scratch_conflicts);
  json.field("incremental_wall_ms", sweep_demo.incremental_wall_ms);
  json.field("scratch_wall_ms", sweep_demo.scratch_wall_ms);
  json.field("cores_certified", sweep_demo.cores_certified);
  json.end();

  json.begin_object("re_cache_demo");
  json.field("steps", cache_demo.steps);
  json.field("verdicts_match", cache_demo.verdicts_match);
  json.field("cold_hits", cache_demo.cold_hits);
  json.field("cold_misses", cache_demo.cold_misses);
  json.field("warm_hits", cache_demo.warm_hits);
  json.field("warm_misses", cache_demo.warm_misses);
  json.field("warm_dfs_nodes", cache_demo.warm_dfs_nodes);
  json.field("off_wall_ms", cache_demo.off_wall_ms);
  json.field("cold_wall_ms", cache_demo.cold_wall_ms);
  json.field("warm_wall_ms", cache_demo.warm_wall_ms);
  json.field("warm_canonical_ms", cache_demo.warm_canonical_ms);
  json.field("chain_steps", cache_demo.chain_steps);
  json.field("chain_hits", cache_demo.chain_hits);
  json.field("chain_dfs_nodes_after_first", cache_demo.chain_dfs_nodes_after_first);
  json.end();

  json.begin_object("cert_demo");
  json.field("sequence_steps", cert_demo.sequence_steps);
  json.field("sequence_valid", cert_demo.sequence_valid);
  json.field("sequence_emit_wall_ms", cert_demo.sequence_emit_wall_ms);
  json.field("sequence_check_wall_ms", cert_demo.sequence_check_wall_ms);
  json.field("sequence_bytes", cert_demo.sequence_bytes);
  json.field("lift_proof_steps", cert_demo.lift_proof_steps);
  json.field("lift_valid", cert_demo.lift_valid);
  json.field("lift_emit_wall_ms", cert_demo.lift_emit_wall_ms);
  json.field("lift_check_wall_ms", cert_demo.lift_check_wall_ms);
  json.field("lift_bytes", cert_demo.lift_bytes);
  json.field("roundtrip_valid", cert_demo.roundtrip_valid);
  json.end();

  json.begin_object("serve_demo");
  json.field("requests", serve_demo.requests);
  json.field("ok", serve_demo.ok);
  json.field("admission_rejects", serve_demo.admission_rejects);
  json.field("checkpoint_failures", serve_demo.checkpoint_failures);
  json.field("recovered_from", serve_demo.recovered_from);
  json.field("checkpoint_recoveries", serve_demo.checkpoint_recoveries);
  json.field("verdicts_match", serve_demo.verdicts_match);
  json.field("final_checkpoint_valid", serve_demo.final_checkpoint_valid);
  json.field("warm_cache_hits", serve_demo.warm_cache_hits);
  json.field("requests_per_sec", serve_demo.requests_per_sec, 1);
  json.field("wall_ms", serve_demo.wall_ms);
  json.begin_object("socket");
  json.field("connections", serve_demo.socket_connections);
  json.field("requests", serve_demo.socket_requests);
  json.field("batch_groups", serve_demo.socket_batch_groups);
  json.field("batched_requests", serve_demo.socket_batched_requests);
  json.field("batch_peak", serve_demo.socket_batch_peak);
  json.field("single_dispatch", serve_demo.socket_single_dispatch);
  json.field("unbatched_dispatches", serve_demo.unbatched_dispatches);
  json.field("verdicts_match", serve_demo.socket_verdicts_match);
  json.field("wall_ms", serve_demo.socket_wall_ms);
  json.end();
  json.end();

  json.begin_object("discover_demo");
  for (const auto& [tag, run] : {std::pair<const char*, const DiscoverRun&>{
                                     "coloring", discover_demo.coloring},
                                 {"matching", discover_demo.matching}}) {
    json.begin_object(tag);
    json.field("target", run.target);
    json.field("status", run.status);
    json.field("pumped", run.pumped);
    json.field("expansions", run.expansions);
    json.field("frontier_peak", run.frontier_peak);
    json.field("nodes", run.nodes);
    json.field("cache_hits", run.cache_hits);
    json.field("cache_misses", run.cache_misses);
    json.field("certs_emitted", run.certs_emitted);
    json.field("cert_bytes", run.cert_bytes);
    json.field("wall_ms", run.wall_ms);
    json.end();
  }
  json.field("certs_valid", discover_demo.certs_valid);
  json.field("thread_invariance", discover_demo.thread_invariance);
  json.end();
  json.finish();
  std::fclose(f);
  std::printf("wrote BENCH_RE.json\n\n");
}

void print_table() {
  std::printf(
      "\nE2  round elimination steps (Lemma 4.5: Π_Δ(x+y,y) relaxes RE(Π_Δ(x,y)))\n"
      "%3s %3s %3s | %8s %6s %6s | %10s | %9s %9s\n",
      "Δ", "x", "y", "|Σ(RE)|", "|W|", "|B|", "relaxation", "par ms", "ser ms");
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> params{
      {4, 0, 1}, {4, 1, 1}, {4, 2, 1}, {5, 0, 1}, {5, 1, 1},
      {5, 1, 2}, {6, 1, 2}, {8, 2, 3}, {10, 1, 2}};
  std::vector<E2Row> rows;
  REStats totals;
  double table_wall_ms = 0.0;
  double serial_table_wall_ms = 0.0;
  for (const auto [delta, x, y] : params) {
    E2Row row;
    row.delta = delta;
    row.x = x;
    row.y = y;
    const Problem pi = make_matching_problem(delta, x, y);

    REOptions options;
    options.max_configurations = 5'000'000;
    options.stats = &row.stats;
    const auto t0 = std::chrono::steady_clock::now();
    const auto re = round_eliminate(pi, options);
    row.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    table_wall_ms += row.wall_ms;

    REOptions serial = options;
    serial.stats = nullptr;
    serial.threads = 1;
    const auto t1 = std::chrono::steady_clock::now();
    const auto re_serial = round_eliminate(pi, serial);
    row.serial_wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t1)
            .count();
    serial_table_wall_ms += row.serial_wall_ms;

    if (!re) {
      std::printf("%3zu %3zu %3zu | (resource cap exceeded)\n", delta, x, y);
      rows.push_back(row);
      totals += row.stats;
      continue;
    }
    row.computed = true;
    row.sigma = re->alphabet_size();
    row.white = re->white().size();
    row.black = re->black().size();
    const Problem relaxed = make_matching_problem(delta, x + y, y);
    row.relaxation_verified =
        find_relaxation_label_map(*re, relaxed, {.node_budget = 0, .threads = 1}).map ||
        find_relaxation_witness(*re, relaxed, {.node_budget = 20'000'000, .threads = 1})
            .mapping;
    std::printf("%3zu %3zu %3zu | %8zu %6zu %6zu | %10s | %9.2f %9.2f\n", delta, x, y,
                row.sigma, row.white, row.black,
                row.relaxation_verified ? "verified" : "MISSING", row.wall_ms,
                row.serial_wall_ms);
    std::printf("          |   %s\n", row.stats.to_string().c_str());
    rows.push_back(row);
    totals += row.stats;
  }
  std::printf("E2 RE wall totals: parallel %.2f ms, serial %.2f ms\n", table_wall_ms,
              serial_table_wall_ms);

  std::printf(
      "\nE2b fixed points (Lemma 5.4: RE(Π_Δ(k)) = Π_Δ(k) for k <= Δ)\n"
      "%3s %3s | %11s\n",
      "Δ", "k", "fixed point");
  for (const auto [delta, k] : {std::pair<std::size_t, std::size_t>{3, 2},
                                {4, 2},
                                {3, 3},
                                {4, 3},
                                {5, 2}}) {
    const Problem pi = make_coloring_problem(delta, k);
    std::printf("%3zu %3zu | %11s\n", delta, k,
                is_fixed_point(pi) ? "yes" : "NO");
  }

  std::printf(
      "\nE2c sinkless orientation chain: RE(SO) = SO' and RE(SO') = SO'\n");
  for (const std::size_t delta : {3u, 4u, 5u}) {
    const Problem so = make_sinkless_orientation_problem(delta);
    const auto so_prime = round_eliminate(so);
    std::printf("  Δ=%zu: RE(SO) computed=%s, SO' fixed point=%s\n", delta,
                so_prime ? "yes" : "no",
                so_prime && is_fixed_point(*so_prime) ? "yes" : "NO");
  }

  // E2d: tiny node budget on the hardest row — must abort fast, not hang.
  BudgetDemo budget_demo;
  {
    const Problem pi = make_matching_problem(budget_demo.delta, budget_demo.x,
                                             budget_demo.y);
    REStats stats;
    REOptions options;
    options.max_configurations = 5'000'000;
    options.max_nodes = budget_demo.max_nodes;
    options.stats = &stats;
    const auto t0 = std::chrono::steady_clock::now();
    const auto re = round_eliminate(pi, options);
    budget_demo.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    budget_demo.exhausted = !re.has_value() && stats.budget_exhausted > 0;
    budget_demo.dfs_nodes_at_exhaustion = stats.dfs_nodes;
    std::printf(
        "\nE2d budgeted RE, Δ=%zu x=%zu y=%zu, max_nodes=%llu: %s after %llu "
        "dfs nodes in %.2f ms\n",
        budget_demo.delta, budget_demo.x, budget_demo.y,
        static_cast<unsigned long long>(budget_demo.max_nodes),
        budget_demo.exhausted ? "exhausted" : "COMPLETED (cap too high?)",
        static_cast<unsigned long long>(budget_demo.dfs_nodes_at_exhaustion),
        budget_demo.wall_ms);
  }

  // E2e: the racing portfolio on a concrete labeling instance.
  PortfolioDemo portfolio_demo;
  {
    const Problem pi = make_matching_problem(3, 0, 1);
    const BipartiteGraph g = make_complete_bipartite(3, 3);
    const PortfolioResult result = solve_labeling_portfolio(g, pi);
    portfolio_demo.verdict = to_string(result.verdict);
    portfolio_demo.winner = result.winner;
    portfolio_demo.nodes = result.nodes;
    portfolio_demo.conflicts = result.conflicts;
    portfolio_demo.wall_ms = result.wall_ms;
    std::printf(
        "E2e portfolio, matching Δ=3 on K_{3,3}: %s (winner: %s) "
        "[nodes=%llu conflicts=%llu wall=%.2f ms]\n\n",
        portfolio_demo.verdict.c_str(), portfolio_demo.winner.c_str(),
        static_cast<unsigned long long>(portfolio_demo.nodes),
        static_cast<unsigned long long>(portfolio_demo.conflicts),
        portfolio_demo.wall_ms);
  }

  // E2f: incremental lift sweep vs from-scratch baseline on the E3 workload.
  SweepDemo sweep_demo;
  {
    const Problem mm = make_maximal_matching_problem(3);
    const auto supports =
        make_gadget_supports(sweep_demo.big_delta, sweep_demo.big_r, 1, 8);
    sweep_demo.supports = supports.size();

    LiftSweepOptions inc;
    inc.incremental = true;
    inc.certify_cores = true;
    const LiftSweepResult a = run_lift_sweep(mm, sweep_demo.big_delta,
                                             sweep_demo.big_r, supports, inc);
    LiftSweepOptions scr;
    scr.incremental = false;
    const LiftSweepResult b = run_lift_sweep(mm, sweep_demo.big_delta,
                                             sweep_demo.big_r, supports, scr);

    sweep_demo.verdicts_match =
        a.lift_materialized && b.lift_materialized && a.steps.size() == b.steps.size();
    for (std::size_t i = 0; sweep_demo.verdicts_match && i < a.steps.size(); ++i) {
      sweep_demo.verdicts_match = a.steps[i].verdict == b.steps[i].verdict &&
                                  a.steps[i].verdict != Verdict::kExhausted;
    }
    for (const LiftSweepStep& step : a.steps) {
      if (step.verdict == Verdict::kNo && step.core_check == Verdict::kNo) {
        ++sweep_demo.cores_certified;
      }
    }
    sweep_demo.incremental_clauses = a.total_clauses;
    sweep_demo.scratch_clauses = b.total_clauses;
    sweep_demo.incremental_conflicts = a.total_conflicts;
    sweep_demo.scratch_conflicts = b.total_conflicts;
    sweep_demo.incremental_wall_ms = a.total_wall_ms;
    sweep_demo.scratch_wall_ms = b.total_wall_ms;
    std::printf(
        "E2f incremental sweep, lift_{%zu,%zu}(MM_3) over %zu gadget supports: "
        "verdicts %s | clauses %zu vs %zu | conflicts %llu vs %llu | "
        "wall %.2f ms vs %.2f ms | cores certified %zu\n\n",
        sweep_demo.big_delta, sweep_demo.big_r, sweep_demo.supports,
        sweep_demo.verdicts_match ? "match" : "DIVERGE",
        sweep_demo.incremental_clauses, sweep_demo.scratch_clauses,
        static_cast<unsigned long long>(sweep_demo.incremental_conflicts),
        static_cast<unsigned long long>(sweep_demo.scratch_conflicts),
        sweep_demo.incremental_wall_ms, sweep_demo.scratch_wall_ms,
        sweep_demo.cores_certified);
  }

  // E2g: the cross-step RE cache on the E2 sequence set, cold vs warm, plus
  // intra-run short-circuiting on a renamed fixed-point chain.
  CacheDemo cache_demo;
  {
    const auto problems = matching_lower_bound_sequence(4, 0, 1, 2);
    cache_demo.steps = problems.size() - 1;
    const auto run = [&](RECache* cache, REStats* stats) {
      REOptions options;
      options.max_configurations = 5'000'000;
      options.cache = cache;
      options.stats = stats;
      const auto t0 = std::chrono::steady_clock::now();
      const SequenceReport report = verify_lower_bound_sequence(problems, options);
      const double wall =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    t0)
              .count();
      return std::pair<SequenceReport, double>{report, wall};
    };

    REStats off_stats;
    const auto [off, off_wall] = run(nullptr, &off_stats);
    cache_demo.off_wall_ms = off_wall;

    // The (fresh cache -> cold -> warm) pair runs kCachePairs times and each
    // side reports its minimum wall: one pair of single runs of a few ms is
    // at the mercy of scheduler noise, and warm <= cold is gated. Every
    // pair computes the same counters and verdicts; the last one's are kept.
    constexpr int kCachePairs = 3;
    cache_demo.verdicts_match = true;
    cache_demo.cold_wall_ms = cache_demo.warm_wall_ms =
        std::numeric_limits<double>::infinity();
    for (int pair = 0; pair < kCachePairs; ++pair) {
      RECache cache;
      REStats cold_stats;
      const auto [cold, cold_wall] = run(&cache, &cold_stats);
      cache_demo.cold_wall_ms = std::min(cache_demo.cold_wall_ms, cold_wall);
      cache_demo.cold_hits = cold_stats.cache_hits;
      cache_demo.cold_misses = cold_stats.cache_misses;

      REStats warm_stats;
      const auto [warm, warm_wall] = run(&cache, &warm_stats);
      cache_demo.warm_wall_ms = std::min(cache_demo.warm_wall_ms, warm_wall);
      cache_demo.warm_hits = warm_stats.cache_hits;
      cache_demo.warm_misses = warm_stats.cache_misses;
      cache_demo.warm_dfs_nodes = warm_stats.dfs_nodes;
      cache_demo.warm_canonical_ms = warm_stats.canonical_ms;

      cache_demo.verdicts_match = cache_demo.verdicts_match &&
                                  off.to_string() == cold.to_string() &&
                                  off.to_string() == warm.to_string();
    }

    // Fixed-point chain: Π_4(3) (Lemma 5.4) repeated under label rotations;
    // every step after the first must short-circuit within one cold run.
    const Problem fp = make_coloring_problem(4, 3);
    std::vector<Problem> chain = {fp};
    for (std::size_t i = 1; i < 6; ++i) {
      std::vector<Label> rot(fp.alphabet_size());
      for (std::size_t l = 0; l < rot.size(); ++l) {
        rot[l] = static_cast<Label>((l + i) % rot.size());
      }
      chain.push_back(apply_renaming(fp, rot));
    }
    cache_demo.chain_steps = chain.size() - 1;
    RECache chain_cache;
    REStats chain_stats;
    REOptions chain_options;
    chain_options.cache = &chain_cache;
    chain_options.stats = &chain_stats;
    const SequenceReport chain_report =
        verify_lower_bound_sequence(chain, chain_options);
    cache_demo.chain_hits = chain_stats.cache_hits;
    for (const SequenceStepReport& step : chain_report.steps) {
      if (step.index > 1) cache_demo.chain_dfs_nodes_after_first += step.re_dfs_nodes;
    }

    std::printf(
        "E2g RE cache, matching sequence (Δ=4, k=2): wall off %.2f ms, "
        "cold %.2f ms, warm %.2f ms | cold hit/miss %llu/%llu, warm %llu/%llu "
        "(dfs_nodes=%llu, canon %.2f ms) | verdicts %s\n"
        "    fixed-point chain Π_4(3) x%zu: %llu intra-run hits, %llu dfs nodes "
        "after first step\n\n",
        cache_demo.off_wall_ms, cache_demo.cold_wall_ms, cache_demo.warm_wall_ms,
        static_cast<unsigned long long>(cache_demo.cold_hits),
        static_cast<unsigned long long>(cache_demo.cold_misses),
        static_cast<unsigned long long>(cache_demo.warm_hits),
        static_cast<unsigned long long>(cache_demo.warm_misses),
        static_cast<unsigned long long>(cache_demo.warm_dfs_nodes),
        cache_demo.warm_canonical_ms,
        cache_demo.verdicts_match ? "match" : "DIVERGE", cache_demo.chain_steps + 1,
        static_cast<unsigned long long>(cache_demo.chain_hits),
        static_cast<unsigned long long>(cache_demo.chain_dfs_nodes_after_first));
  }

  // E2h: certificate emission vs independent checking on the acceptance
  // instances (Δ'=3 matching sequence; C_3 lift-UNSAT for 2-coloring).
  CertDemo cert_demo;
  {
    const auto wall_since = [](std::chrono::steady_clock::time_point t0) {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };

    const auto problems =
        matching_lower_bound_sequence(3, 0, 1, matching_sequence_length(3, 0, 1));
    REOptions options;
    options.max_configurations = 5'000'000;
    auto t0 = std::chrono::steady_clock::now();
    const auto seq_cert = cert::make_sequence_certificate(problems, options);
    cert_demo.sequence_emit_wall_ms = wall_since(t0);
    if (seq_cert) {
      cert_demo.sequence_steps = seq_cert->sequence.steps.size();
      t0 = std::chrono::steady_clock::now();
      const auto verdict = cert::check_certificate(*seq_cert);
      cert_demo.sequence_check_wall_ms = wall_since(t0);
      cert_demo.sequence_valid = verdict.status == cert::CertStatus::kValid;
    }

    const auto two_coloring = parse_problem("two_coloring", "A^2\nB^2", "A B");
    std::optional<cert::Certificate> lift_cert;
    if (two_coloring) {
      t0 = std::chrono::steady_clock::now();
      lift_cert = cert::make_lift_unsat_certificate(*two_coloring, 2, 2,
                                                    make_bipartite_cycle(3));
      cert_demo.lift_emit_wall_ms = wall_since(t0);
    }
    if (lift_cert) {
      cert_demo.lift_proof_steps = lift_cert->lift.proof.steps.size();
      t0 = std::chrono::steady_clock::now();
      const auto verdict = cert::check_certificate(*lift_cert);
      cert_demo.lift_check_wall_ms = wall_since(t0);
      cert_demo.lift_valid = verdict.status == cert::CertStatus::kValid;
    }

    // Round-trip both kinds through the on-disk container and recheck.
    cert_demo.roundtrip_valid = seq_cert.has_value() && lift_cert.has_value();
    const std::pair<const char*, const std::optional<cert::Certificate>&> files[] = {
        {"cert_demo_seq.cert", seq_cert}, {"cert_demo_lift.cert", lift_cert}};
    for (const auto& [path, emitted] : files) {
      if (!emitted) continue;
      std::string error;
      cert::Certificate reloaded;
      const bool ok = cert::save_certificate(*emitted, path, &error) &&
                      cert::load_certificate(path, &reloaded, &error) &&
                      cert::check_certificate(reloaded).status ==
                          cert::CertStatus::kValid;
      if (!ok) cert_demo.roundtrip_valid = false;
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(path, ec);
      (path == files[0].first ? cert_demo.sequence_bytes : cert_demo.lift_bytes) =
          ec ? 0 : static_cast<std::size_t>(bytes);
    }

    std::printf(
        "E2h proof certificates: matching Δ'=3 sequence (%zu steps) emit %.2f ms, "
        "check %.2f ms, %zu bytes, %s | C_3 lift-unsat (%zu DRAT steps) emit "
        "%.2f ms, check %.2f ms, %zu bytes, %s | disk round-trip %s\n\n",
        cert_demo.sequence_steps, cert_demo.sequence_emit_wall_ms,
        cert_demo.sequence_check_wall_ms, cert_demo.sequence_bytes,
        cert_demo.sequence_valid ? "VALID" : "INVALID", cert_demo.lift_proof_steps,
        cert_demo.lift_emit_wall_ms, cert_demo.lift_check_wall_ms,
        cert_demo.lift_bytes, cert_demo.lift_valid ? "VALID" : "INVALID",
        cert_demo.roundtrip_valid ? "ok" : "BROKEN");
  }

  // E2j: the lower-bound service under overload and injected faults — a
  // verdict phase, a burst that must shed at admission, a deliberately torn
  // checkpoint, then a second server instance that must recover from the
  // fallback generation and reproduce every verdict from its warm cache.
  ServeDemo serve_demo;
  {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir = fs::temp_directory_path() / "slocal_bench_serve";
    fs::create_directories(dir, ec);
    const std::string problem_path = (dir / "two_coloring.txt").string();
    const std::string checkpoint_path = (dir / "re_cache.ckpt").string();
    fs::remove(checkpoint_path, ec);
    fs::remove(checkpoint_path + ".bak", ec);
    if (std::FILE* pf = std::fopen(problem_path.c_str(), "w")) {
      std::fputs("A^2\nB^2\n---\nA B\n", pf);
      std::fclose(pf);
    }

    // The verdict phase both runs replay; ids double as map keys.
    std::vector<std::string> phase_a;
    for (int repeat = 1; repeat <= 4; ++repeat) {
      phase_a.push_back("req seq" + std::to_string(repeat) + " sequence " +
                        problem_path + " repeat=" + std::to_string(repeat));
    }
    phase_a.push_back("req swp4 sweep " + problem_path + " 2 2 cycles:2..4");
    phase_a.push_back("req swp5 sweep " + problem_path + " 2 2 cycles:2..5");

    // Pulls the verdict= (or per-support verdicts=) token out of an ok line,
    // dropping the consumption counters that legitimately differ between a
    // cold and a warm run.
    const auto verdict_token = [](const std::string& line) -> std::string {
      std::size_t pos = line.find(" verdicts=");
      if (pos == std::string::npos) pos = line.find(" verdict=");
      if (pos == std::string::npos) return "";
      ++pos;
      const std::size_t end = line.find(' ', pos);
      return line.substr(pos,
                         end == std::string::npos ? std::string::npos : end - pos);
    };

    const auto run_phase_a = [&](serve::Server& server,
                                 std::map<std::string, std::string>* verdicts) {
      server.set_response_sink([&, verdicts](const std::string& line) {
        if (line.rfind("resp ", 0) != 0) return;  // control replies
        const std::size_t id_end = line.find(' ', 5);
        if (id_end == std::string::npos) return;
        if (line.compare(id_end + 1, 3, "ok ") == 0) {
          (*verdicts)[line.substr(5, id_end - 5)] = verdict_token(line);
        }
      });
      for (const std::string& request : phase_a) {
        server.handle_line(request);
        server.drain();  // serial: keeps the fault-plan ordinals deterministic
      }
    };

    std::map<std::string, std::string> verdicts_run1;
    const auto serve_t0 = std::chrono::steady_clock::now();
    {
      serve::ServeOptions options;
      options.workers = 2;
      options.queue_capacity = 4;
      options.retry_after_ms = 5.0;
      options.checkpoint_path = checkpoint_path;
      std::string fault_error;
      // Write #2 is torn; every admitted request from #7 on wedges for 60 ms.
      options.faults = *serve::ServeFaultPlan::parse(
          "fail-checkpoint=2,delay-request=7/1:60", &fault_error);
      serve::Server server(options);
      run_phase_a(server, &verdicts_run1);
      // Only the replayed phase is compared across runs; the burst's own
      // responses (a mix of ok and admission rejects) are just counted.
      server.set_response_sink([](const std::string&) {});
      server.handle_line("checkpoint");  // write #1: clean primary generation

      // Overload burst: the wedged workers saturate the queue in the first
      // few sends, so the rest must bounce at admission, not pile up.
      for (int i = 0; i < 20; ++i) {
        server.handle_line("req burst" + std::to_string(i) + " sequence " +
                           problem_path + " repeat=1");
      }
      server.drain();
      server.handle_line("checkpoint");  // write #2: torn by the fault plan

      const serve::ServeCounters counters = server.counters();
      serve_demo.requests = phase_a.size() + 20;
      serve_demo.ok = counters.ok;
      serve_demo.admission_rejects = counters.admission_rejects;
      serve_demo.checkpoint_failures = counters.checkpoint_failures;
    }
    serve_demo.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - serve_t0)
                             .count();
    serve_demo.requests_per_sec =
        serve_demo.wall_ms > 0.0 ? static_cast<double>(serve_demo.requests) /
                                       (serve_demo.wall_ms / 1000.0)
                                 : 0.0;

    std::map<std::string, std::string> verdicts_run2;
    {
      serve::ServeOptions options;
      options.workers = 2;
      options.queue_capacity = 4;
      options.checkpoint_path = checkpoint_path;
      serve::Server server(options);
      serve_demo.recovered_from =
          serve::CheckpointManager::to_string(server.recovery());
      const bool recovered =
          server.recovery() == serve::CheckpointManager::Recovery::kPrimary ||
          server.recovery() == serve::CheckpointManager::Recovery::kFallback;
      serve_demo.checkpoint_recoveries = recovered ? 1 : 0;
      run_phase_a(server, &verdicts_run2);
      serve_demo.warm_cache_hits = server.cache_counters().hits;
      std::string flush_error;
      server.flush_checkpoint(&flush_error);
    }
    serve_demo.verdicts_match =
        !verdicts_run1.empty() && verdicts_run1 == verdicts_run2;
    {
      RECache final_cache;
      serve_demo.final_checkpoint_valid = final_cache.load(checkpoint_path);
    }
    std::printf(
        "E2j serve, %zu requests @ %.0f req/s: ok=%llu rejects=%llu "
        "torn_checkpoints=%llu | restart recovered=%s verdicts %s | warm hits=%llu "
        "final checkpoint %s\n\n",
        serve_demo.requests, serve_demo.requests_per_sec,
        static_cast<unsigned long long>(serve_demo.ok),
        static_cast<unsigned long long>(serve_demo.admission_rejects),
        static_cast<unsigned long long>(serve_demo.checkpoint_failures),
        serve_demo.recovered_from.c_str(),
        serve_demo.verdicts_match ? "match" : "DIVERGE",
        static_cast<unsigned long long>(serve_demo.warm_cache_hits),
        serve_demo.final_checkpoint_valid ? "valid" : "TORN");

    // Socket phase: the same sweep workload, batched vs unbatched. Eight
    // clients ask for overlapping cycle ranges on the same problem — same
    // canonical fingerprint, same (Δ, r), same family kind — so the batcher
    // must fold all of them into one sweep-group dispatch. The reference run
    // pushes the identical requests through a plain server one at a time
    // (8 single dispatches); the socket run must reproduce its verdicts
    // exactly despite answering them from one shared encoding.
    constexpr std::size_t kSocketClients = 8;
    std::vector<std::string> socket_requests;
    for (std::size_t i = 0; i < kSocketClients; ++i) {
      socket_requests.push_back(
          "req sock" + std::to_string(i) + " sweep " + problem_path + " 2 2 " +
          (i % 2 == 0 ? "cycles:2..4" : "cycles:3..5"));
    }

    std::map<std::string, std::string> verdicts_plain;
    {
      serve::ServeOptions options;
      options.workers = 2;
      serve::Server server(options);
      server.set_response_sink([&](const std::string& line) {
        if (line.rfind("resp sock", 0) != 0) return;
        const std::size_t id_end = line.find(' ', 5);
        if (id_end == std::string::npos) return;
        if (line.compare(id_end + 1, 3, "ok ") == 0) {
          verdicts_plain[line.substr(5, id_end - 5)] = verdict_token(line);
        }
      });
      for (const std::string& request : socket_requests) {
        server.handle_line(request);
      }
      server.drain();
      // No batcher here, so every ok sweep was one full solver dispatch.
      serve_demo.unbatched_dispatches = server.counters().ok;
    }

    std::map<std::string, std::string> verdicts_socket;
    {
      serve::ServeOptions options;
      options.workers = 2;
      options.queue_capacity = 2 * kSocketClients;
      serve::Server server(options);
      net::SweepBatcherOptions batch_options;
      batch_options.window_ms = 250;  // every client sends well inside this
      net::SweepBatcher batcher(server, batch_options);
      batcher.attach();
      net::TcpServerOptions tcp_options;
      net::TcpServer tcp(server, tcp_options);
      std::string error;
      if (!tcp.start(&error)) {
        std::fprintf(stderr, "E2j socket: %s\n", error.c_str());
      } else {
        std::thread runner([&tcp] { tcp.run(); });
        const auto socket_t0 = std::chrono::steady_clock::now();
        std::mutex verdicts_mutex;
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < kSocketClients; ++i) {
          clients.emplace_back([&, i] {
            net::ClientOptions client_options;
            client_options.port = tcp.port();
            net::Client client;
            std::string client_error;
            if (!client.connect(client_options, &client_error)) return;
            const auto response =
                client.request(socket_requests[i], &client_error);
            if (!response) return;
            const std::string token = verdict_token(*response);
            if (token.empty()) return;
            const std::lock_guard<std::mutex> lock(verdicts_mutex);
            verdicts_socket["sock" + std::to_string(i)] = token;
          });
        }
        for (std::thread& t : clients) t.join();
        serve_demo.socket_wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - socket_t0)
                .count();
        tcp.stop();
        runner.join();
        const serve::ServeCounters counters = server.counters();
        serve_demo.socket_connections = kSocketClients;
        serve_demo.socket_requests = socket_requests.size();
        serve_demo.socket_batch_groups = counters.sweep_batch_groups;
        serve_demo.socket_batched_requests = counters.sweep_batch_requests;
        serve_demo.socket_batch_peak = counters.sweep_batch_peak;
        serve_demo.socket_single_dispatch = counters.sweep_single_dispatch;
      }
    }
    serve_demo.socket_verdicts_match =
        !verdicts_plain.empty() && verdicts_plain == verdicts_socket;
    std::printf(
        "E2j socket, %zu clients x 1 sweep: batch groups=%llu "
        "batched=%llu peak=%llu single=%llu (unbatched reference: %llu "
        "dispatches) | verdicts %s\n\n",
        serve_demo.socket_connections,
        static_cast<unsigned long long>(serve_demo.socket_batch_groups),
        static_cast<unsigned long long>(serve_demo.socket_batched_requests),
        static_cast<unsigned long long>(serve_demo.socket_batch_peak),
        static_cast<unsigned long long>(serve_demo.socket_single_dispatch),
        static_cast<unsigned long long>(serve_demo.unbatched_dispatches),
        serve_demo.socket_verdicts_match ? "match" : "DIVERGE");
  }

  // E2k: the automatic discovery driver on the two rediscovery workloads.
  // Each family runs with threads=1 and threads=4; the determinism contract
  // says the discovery log and the certificate bytes must agree exactly.
  DiscoverDemo discover_demo;
  {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir = fs::temp_directory_path() / "slocal_bench_discover";
    fs::create_directories(dir, ec);

    ParseError parse_error;
    const auto two_coloring = parse_problem_text(
        "two_coloring", "A^2\nB^2\n---\nA B\n", &parse_error);
    const std::vector<Problem> coloring_family{*two_coloring};
    const std::vector<Problem> matching_family{make_matching_problem(3, 0, 1),
                                               make_matching_problem(3, 1, 1)};

    bool certs_valid = true;
    bool invariant = true;
    const auto read_bytes = [](const std::string& path) {
      std::string bytes;
      if (std::FILE* bf = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), bf)) > 0) bytes.append(buf, n);
        std::fclose(bf);
      }
      return bytes;
    };
    const auto measure = [&](const char* tag, const std::vector<Problem>& family,
                             std::size_t target) {
      DiscoverRun run;
      run.target = target;
      std::string log_t1, cert_t1;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        discover::DiscoverOptions options;
        options.target_length = target;
        options.threads = threads;
        const auto t0 = std::chrono::steady_clock::now();
        const discover::DiscoverResult result =
            discover::run_discovery(family, options);
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        std::string cert_bytes;
        for (const discover::Discovery& find : result.found) {
          const cert::CertCheckResult check = cert::check_certificate(find.certificate);
          certs_valid = certs_valid && check.status == cert::CertStatus::kValid;
          const std::string path = (dir / (std::string(tag) + ".cert")).string();
          std::string error;
          if (cert::save_certificate(find.certificate, path, &error)) {
            cert_bytes += read_bytes(path);
          } else {
            certs_valid = false;
          }
        }
        certs_valid = certs_valid && !result.found.empty();
        if (threads == 1) {
          log_t1 = result.log;
          cert_t1 = cert_bytes;
          run.status = discover::to_string(result.status);
          run.pumped = !result.found.empty() && result.found.front().pumped;
          run.expansions = result.stats.expansions;
          run.frontier_peak = result.stats.frontier_peak;
          run.nodes = result.stats.nodes_spent;
          run.cache_hits = result.stats.cache_hits;
          run.cache_misses = result.stats.cache_misses;
          run.certs_emitted = result.stats.certs_emitted;
          run.cert_bytes = cert_bytes.size();
          run.wall_ms = wall_ms;
        } else {
          invariant = invariant && result.log == log_t1 && cert_bytes == cert_t1;
        }
      }
      return run;
    };
    discover_demo.coloring = measure("coloring", coloring_family, 3);
    discover_demo.matching = measure("matching", matching_family, 1);
    discover_demo.certs_valid = certs_valid;
    discover_demo.thread_invariance = invariant;
    std::printf(
        "E2k discover: coloring %s (pumped=%d, %llu expansions, %llu nodes, "
        "%.2f ms) | matching %s (%llu expansions, %llu nodes, %.2f ms) | "
        "certs %s | threads 1 vs 4 %s\n\n",
        discover_demo.coloring.status.c_str(), discover_demo.coloring.pumped ? 1 : 0,
        static_cast<unsigned long long>(discover_demo.coloring.expansions),
        static_cast<unsigned long long>(discover_demo.coloring.nodes),
        discover_demo.coloring.wall_ms, discover_demo.matching.status.c_str(),
        static_cast<unsigned long long>(discover_demo.matching.expansions),
        static_cast<unsigned long long>(discover_demo.matching.nodes),
        discover_demo.matching.wall_ms,
        discover_demo.certs_valid ? "valid" : "INVALID",
        discover_demo.thread_invariance ? "identical" : "DIVERGE");
  }

  write_json(rows, totals, table_wall_ms, serial_table_wall_ms, budget_demo,
             portfolio_demo, sweep_demo, cache_demo, cert_demo, serve_demo,
             discover_demo);
}

void BM_re_matching(benchmark::State& state) {
  const std::size_t delta = static_cast<std::size_t>(state.range(0));
  const Problem pi = make_matching_problem(delta, 0, 1);
  REOptions options;
  options.max_configurations = 10'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(round_eliminate(pi, options));
  }
}
BENCHMARK(BM_re_matching)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_re_matching_serial(benchmark::State& state) {
  const std::size_t delta = static_cast<std::size_t>(state.range(0));
  const Problem pi = make_matching_problem(delta, 0, 1);
  REOptions options;
  options.max_configurations = 10'000'000;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(round_eliminate(pi, options));
  }
}
BENCHMARK(BM_re_matching_serial)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_re_coloring_fixed_point(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const Problem pi = make_coloring_problem(4, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_fixed_point(pi));
  }
}
BENCHMARK(BM_re_coloring_fixed_point)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_re_half_step(benchmark::State& state) {
  const std::size_t delta = static_cast<std::size_t>(state.range(0));
  const Problem so = make_sinkless_orientation_problem(delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_R(so));
  }
}
BENCHMARK(BM_re_half_step)->Arg(3)->Arg(6)->Arg(9)->Unit(benchmark::kMicrosecond);

void BM_sequence_verification(benchmark::State& state) {
  const auto problems = matching_lower_bound_sequence(4, 0, 1, 2);
  REOptions options;
  options.max_configurations = 5'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_lower_bound_sequence(problems, options));
  }
}
BENCHMARK(BM_sequence_verification)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slocal

int main(int argc, char** argv) {
  slocal::print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
