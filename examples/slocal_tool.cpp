// slocal_tool — command-line front end to the framework, in the spirit of
// the Round Eliminator: feed a problem in the paper's notation, inspect it,
// speed it up, lift it, decide solvability on a generated support, verify
// or discover lower-bound sequences, check proof certificates, or run the
// batched simulator. `slocal_tool --help` lists every command and flag;
// README.md walks through them.
//
// Problem file format: white configurations (one per line), a line "---",
// black configurations (one per line). Tokens: NAME, NAME^k, [A B]^k.
//
// The verbs the service exposes too — sequence, sweep, discover,
// check-cert — run through the command core (src/serve/command.hpp), which
// owns loading, validation, engine wiring, and the outcome class; this file
// keeps argv parsing, the printed reports, and the tool's own side effects:
// --re-cache (warm start + save), --emit-cert files, --checkpoint, and
// --scratch.
//
// Budget flags (accepted anywhere after the command):
//   --timeout-ms=N   wall-clock limit for the command's searches
//   --max-nodes=N    search-node limit (forces deterministic serial paths)
// A search that runs out of budget exits with code 3 and prints the budget
// diagnostics; it never misreports as solvable/unsolvable. Any other
// argument starting with "--" that is not a known flag, and any numeric flag
// whose value is not a plain decimal, is a usage error (exit 64), so a
// misspelled or malformed budget flag can never run a search unbudgeted.
//
// SIGINT/SIGTERM are handled the same way: the handler trips a global
// cancel token every command budget chains to, the engines wind down
// cooperatively (exhausted, never a flipped verdict), `sequence --re-cache`
// still saves the warm cache, and the process exits 3.
#include <signal.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cert/emit.hpp"
#include "src/formalism/diagram.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/hypergraph.hpp"
#include "src/lift/lift.hpp"
#include "src/net/client.hpp"
#include "src/serve/command.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_graph.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/util/rng.hpp"
#include "src/util/strings.hpp"
#include "src/util/thread_pool.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"
#include "src/solver/edge_labeling.hpp"
#include "src/solver/portfolio.hpp"
#include "src/solver/zero_round.hpp"
#include "src/util/budget.hpp"

namespace {

using namespace slocal;

constexpr int kExitExhausted = 3;

/// Tripped by SIGINT/SIGTERM; every command budget chains to it, so a
/// signal cancels the running searches cooperatively instead of killing the
/// process mid-write.
SearchBudget g_signal_token;

void handle_signal(int /*signo*/) {
  // Async-signal-safe: cancel() is a CAS plus a store on lock-free atomics.
  g_signal_token.cancel();
}

void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking I/O must see EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // The client verb writes to a server socket that may vanish mid-request;
  // surface that as an error return, not a fatal signal.
  signal(SIGPIPE, SIG_IGN);
}

/// Every --flag the tool accepts, parsed once in main. Numeric flags are
/// strict decimals: a malformed value is a usage error, never a silent 0
/// that would run a search unbudgeted.
struct Flags {
  std::uint64_t timeout_ms = 0;
  std::uint64_t max_nodes = 0;
  bool scratch = false;
  std::uint64_t repeat = 0;
  std::string re_cache_path;
  std::string emit_cert_path;
  std::uint64_t threads = 1;
  std::uint64_t rounds = 10'000;
  std::uint64_t seed = 1;
  std::uint64_t target_length = 1;
  std::uint64_t beam = 4;
  std::uint64_t max_expansions = 256;
  std::uint64_t max_finds = 1;
  std::uint64_t step_nodes = 0;
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;

  /// The deadline plus the signal chain, for engines that own the node cap
  /// through their own options (REOptions::max_nodes, the discover pool).
  /// Always non-null: an unlimited budget still carries the signal chain.
  SearchBudget* configure_deadline(SearchBudget& storage) const {
    if (timeout_ms > 0) storage.set_deadline_ms(static_cast<double>(timeout_ms));
    storage.chain_to(&g_signal_token);
    return &storage;
  }

  /// The shared budget for a command: deadline, node limit, signal chain.
  SearchBudget* configure(SearchBudget& storage) const {
    if (max_nodes > 0) storage.set_node_limit(max_nodes);
    return configure_deadline(storage);
  }
};

int report_exhausted(const SearchBudget& budget) {
  std::fprintf(stderr, "budget exhausted: %s\n", budget.describe().c_str());
  return kExitExhausted;
}

std::optional<Problem> load_problem(const char* path) {
  std::string error;
  auto problem = load_problem_file(path, &error);
  if (!problem) std::fprintf(stderr, "%s\n", error.c_str());
  return problem;
}

/// --re-cache=PATH warm start, shared by sequence and discover: a missing
/// file is a cold run, but an unreadable or corrupt one is a hard error
/// (false; exit 2) so a bad cache can never silently degrade into a wrong
/// or uncached verdict.
bool warm_start(RECache& cache, const std::string& path) {
  if (!std::ifstream(path).good()) return true;
  std::string error;
  if (cache.load(path, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

bool save_cache(const RECache& cache, const std::string& path) {
  std::string error;
  if (cache.save(path, &error)) return true;
  std::fprintf(stderr, "%s\n", error.c_str());
  return false;
}

bool save_certificate(const cert::Certificate& certificate, const std::string& path) {
  std::string error;
  if (cert::save_certificate(certificate, path, &error)) return true;
  std::fprintf(stderr, "--emit-cert: %s\n", error.c_str());
  return false;
}

/// "<a>x<b>" with both numbers strict (parse_u64): no sign, no junk.
bool parse_dims(std::string_view body, std::uint64_t* a, std::uint64_t* b) {
  const std::size_t x = body.find('x');
  return x != std::string_view::npos && parse_u64(body.substr(0, x), a) &&
         parse_u64(body.substr(x + 1), b);
}

std::optional<BipartiteGraph> load_support(const std::string& spec) {
  const std::string_view view = spec;
  std::uint64_t a = 0, b = 0;
  if (view.rfind("cycle:", 0) == 0) {
    if (parse_u64(view.substr(6), &a) && a >= 2) return make_bipartite_cycle(a);
  } else if (view.rfind("complete:", 0) == 0) {
    if (parse_dims(view.substr(9), &a, &b) && a >= 1 && b >= 1) {
      return make_complete_bipartite(a, b);
    }
  }
  if (spec == "petersen" || spec == "heawood" || spec == "mcgee" || spec == "fano") {
    // Incidence graphs of the named cages / the Fano plane.
    if (spec == "fano") return make_fano_plane().incidence_graph();
    const Graph cage = spec == "petersen" ? make_petersen()
                       : spec == "heawood" ? make_heawood()
                                           : make_mcgee();
    return Hypergraph::from_graph(cage).incidence_graph();
  }
  std::fprintf(stderr,
               "bad support spec '%s' (want cycle:<h>, complete:<a>x<b>, "
               "petersen, heawood, mcgee, or fano)\n",
               spec.c_str());
  return std::nullopt;
}

int cmd_print(const Problem& pi) {
  std::printf("%s\n", format_problem(pi).c_str());
  const Diagram black(pi.black(), pi.alphabet_size());
  std::printf("black diagram:\n%s\n", black.to_dot(pi.registry()).c_str());
  const Diagram white(pi.white(), pi.alphabet_size());
  std::printf("white diagram:\n%s", white.to_dot(pi.registry()).c_str());
  std::printf("\nright-closed sets of the black diagram: %zu\n",
              black.right_closed_sets().size());
  return 0;
}

int cmd_re(const Problem& pi, std::uint64_t steps, const Flags& flags) {
  Problem current = pi;
  SearchBudget budget_storage;
  REOptions options;
  options.max_configurations = 5'000'000;
  // options.max_nodes owns the node cap, so the budget itself stays
  // unlimited and only polls.
  options.max_nodes = flags.max_nodes;
  options.budget = flags.configure_deadline(budget_storage);
  REStats stats;
  options.stats = &stats;
  for (std::uint64_t s = 1; s <= steps; ++s) {
    const auto next = round_eliminate(current, options);
    if (!next) {
      if (stats.budget_exhausted > 0) {
        std::fprintf(stderr, "step %llu: %s\n", static_cast<unsigned long long>(s),
                     stats.to_string().c_str());
        std::fprintf(stderr, "step %llu: budget exhausted\n",
                     static_cast<unsigned long long>(s));
        return kExitExhausted;
      }
      std::fprintf(stderr, "step %llu: resource cap exceeded\n",
                   static_cast<unsigned long long>(s));
      return 1;
    }
    current = *next;
    std::printf("after %llu step(s): |Sigma|=%zu |W|=%zu |B|=%zu\n",
                static_cast<unsigned long long>(s),
                current.alphabet_size(), current.white().size(),
                current.black().size());
  }
  std::printf("\n%s", format_problem(current).c_str());
  return 0;
}

int cmd_fixed(const Problem& pi, const Flags& flags) {
  SearchBudget budget_storage;
  REOptions options;
  options.max_nodes = flags.max_nodes;
  options.budget = flags.configure_deadline(budget_storage);
  REStats stats;
  options.stats = &stats;
  const bool fixed = is_fixed_point(pi, options);
  if (!fixed && stats.budget_exhausted > 0) {
    std::fprintf(stderr, "fixed-point check: budget exhausted (%s)\n",
                 stats.to_string().c_str());
    return kExitExhausted;
  }
  std::printf("RE(Pi) %s Pi (up to renaming)\n", fixed ? "==" : "!=");
  return fixed ? 0 : 2;
}

int cmd_lift(const Problem& pi, std::size_t big_delta, std::size_t big_r) {
  std::string error;
  if (!command::check_lift_targets(pi, big_delta, big_r, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const LiftedProblem lift(pi, big_delta, big_r);
  std::printf("label-sets: %zu\n", lift.label_sets().size());
  const auto materialized = lift.materialize();
  if (!materialized) {
    std::fprintf(stderr, "too large to materialize\n");
    return 1;
  }
  std::printf("%s", format_problem(*materialized).c_str());
  return 0;
}

int cmd_solve(const Problem& pi, const BipartiteGraph& support,
              const Flags& flags) {
  SearchBudget budget_storage;
  LabelingOptions options;
  // The shared budget owns both limits so its describe() reflects the trip.
  options.budget = flags.configure(budget_storage);
  bool exhausted = false;
  const auto labels = solve_bipartite_labeling(support, pi, options, &exhausted);
  if (!labels && exhausted) return report_exhausted(budget_storage);
  if (!labels) {
    std::printf("UNSOLVABLE on this support\n");
    return 2;
  }
  std::printf("solution:");
  for (const Label l : *labels) std::printf(" %s", pi.registry().name(l).c_str());
  std::printf("\n");
  return 0;
}

int cmd_zero(const Problem& pi, const BipartiteGraph& support,
             const Flags& flags) {
  SearchBudget budget_storage;
  SearchBudget* budget = flags.configure(budget_storage);
  ZeroRoundStats stats;
  const bool exists = zero_round_white_algorithm_exists(support, pi, &stats, budget);
  if (stats.verdict == Verdict::kExhausted) return report_exhausted(budget_storage);
  std::printf("0-round Supported-LOCAL white algorithm: %s\n",
              exists ? "EXISTS" : "does not exist");
  std::printf("(cnf: %zu vars, %zu clauses, %zu black scenarios)\n", stats.variables,
              stats.clauses, stats.black_scenarios);
  return exists ? 0 : 2;
}

int cmd_portfolio(const Problem& pi, const BipartiteGraph& support,
                  const Flags& flags) {
  SearchBudget budget_storage;
  budget_storage.chain_to(&g_signal_token);
  PortfolioOptions options;
  options.budget = &budget_storage;  // signal chain; limits stay local below
  options.timeout_ms = flags.timeout_ms;
  if (flags.max_nodes > 0) {
    // --max-nodes caps every engine in the race: backtracking nodes and
    // CDCL conflicts are each a search-step analogue, so an unwinnable
    // budget yields kExhausted (exit 3) instead of a free unlimited solve.
    options.node_budget = flags.max_nodes;
    options.conflict_budget = flags.max_nodes;
  }
  const PortfolioResult result = solve_labeling_portfolio(support, pi, options);
  std::printf("portfolio: %s", to_string(result.verdict));
  if (!result.winner.empty()) std::printf(" (winner: %s)", result.winner.c_str());
  std::printf(" [nodes=%llu conflicts=%llu wall=%.1fms]\n",
              static_cast<unsigned long long>(result.nodes),
              static_cast<unsigned long long>(result.conflicts), result.wall_ms);
  if (result.verdict == Verdict::kExhausted) {
    std::fprintf(stderr, "budget exhausted: %s\n", to_string(result.reason));
    return kExitExhausted;
  }
  if (result.verdict == Verdict::kNo) {
    std::printf("UNSOLVABLE on this support\n");
    return 2;
  }
  std::printf("solution:");
  for (const Label l : *result.labels) {
    std::printf(" %s", pi.registry().name(l).c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_check_cert(const std::string& path) {
  const command::CheckCertResult result = command::run_check_cert(path);
  if (result.outcome == command::Outcome::kCorrupt) {
    std::fprintf(stderr, "check-cert: %s\n", result.error.c_str());
  } else if (result.outcome == command::Outcome::kNo) {
    std::fprintf(stderr, "check-cert: INVALID: %s\n", result.message.c_str());
  } else {
    std::printf("check-cert: VALID (%s)\n", result.message.c_str());
  }
  return command::exit_code(result.outcome, /*no_exit=*/1);
}

int cmd_sweep(const std::string& path, std::size_t big_delta, std::size_t big_r,
              const std::string& family_spec, const Flags& flags) {
  std::string error;
  const auto plan = command::plan_sweep(path, big_delta, big_r, family_spec,
                                        /*max_supports=*/0, &error);
  if (!plan) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  SearchBudget budget_storage;
  LiftSweepOptions options;
  options.incremental = !flags.scratch;
  options.certify_cores = !flags.scratch;
  const command::SweepResult result =
      command::run_sweep(*plan, options, *flags.configure(budget_storage));
  if (result.outcome == command::Outcome::kInvalid) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }

  std::printf("lift_{%zu,%zu}(%s) sweep over %s (%s)\n", big_delta, big_r,
              plan->problem.name().c_str(), family_spec.c_str(),
              flags.scratch ? "from scratch" : "incremental");
  const std::vector<LiftSweepStep>& steps = result.sweep.steps;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LiftSweepStep& step = steps[i];
    std::printf("  support %zu (%zu edges): %s", i + 1, step.edges,
                to_string(step.verdict));
    if (step.verdict == Verdict::kNo && step.core_nodes > 0) {
      std::printf(" (core: %zu nodes%s)", step.core_nodes,
                  step.core_check == Verdict::kNo ? ", certified" : "");
    }
    std::printf(" [clauses+=%zu wall=%.2fms]\n", step.new_clauses, step.wall_ms);
  }
  std::printf("total: %zu clauses, %llu conflicts, %.2f ms\n", result.sweep.total_clauses,
              static_cast<unsigned long long>(result.sweep.total_conflicts),
              result.sweep.total_wall_ms);
  if (result.outcome == command::Outcome::kExhausted) {
    return report_exhausted(budget_storage);
  }
  if (!flags.emit_cert_path.empty()) {
    // Certify the first unsolvable support: re-encode it from scratch with
    // proof logging (the incremental sweep interleaves all supports through
    // one solver, so its conflicts are not a per-support refutation).
    std::size_t unsat_index = 0;
    while (unsat_index < steps.size() && steps[unsat_index].verdict != Verdict::kNo) {
      ++unsat_index;
    }
    if (unsat_index == steps.size()) {
      std::fprintf(stderr,
                   "--emit-cert: no unsolvable support in the sweep, "
                   "nothing to certify\n");
      return 1;
    }
    const auto certificate = cert::make_lift_unsat_certificate(
        plan->problem, big_delta, big_r, result.supports[unsat_index], &budget_storage);
    if (!certificate.has_value()) {
      std::fprintf(stderr, "--emit-cert: failed to build the certificate\n");
      return 1;
    }
    if (!save_certificate(*certificate, flags.emit_cert_path)) return 1;
    std::printf("certificate: lift-unsat for support %zu written to %s\n",
                unsat_index + 1, flags.emit_cert_path.c_str());
  }
  return command::exit_code(result.outcome);
}

int cmd_sequence(const std::vector<std::string>& files, const Flags& flags) {
  if (files.size() + flags.repeat < 2) {
    std::fprintf(stderr, "sequence needs at least two problems "
                         "(give more files or --repeat=N)\n");
    return 1;
  }
  RECache cache;
  const bool use_cache = !flags.re_cache_path.empty();
  if (use_cache && !warm_start(cache, flags.re_cache_path)) return 2;

  SearchBudget budget_storage;
  REOptions options;
  // options.max_nodes owns the node cap; the budget carries the deadline.
  options.max_nodes = flags.max_nodes;
  if (use_cache) options.cache = &cache;
  const bool emit = !flags.emit_cert_path.empty();
  const command::SequenceResult result =
      command::run_sequence(files, flags.repeat, options, emit,
                            *flags.configure_deadline(budget_storage));
  if (result.outcome == command::Outcome::kInvalid) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 1;
  }
  std::printf("%s", result.report.to_string().c_str());
  if (use_cache) {
    std::printf("re-cache: %s\n", render_fields(cache.counters()).c_str());
    if (!save_cache(cache, flags.re_cache_path)) return 1;
  }
  std::printf("stats: %s\n", result.stats.to_string().c_str());
  if (result.outcome == command::Outcome::kExhausted) {
    return report_exhausted(budget_storage);
  }
  if (emit) {
    if (!result.certificate.has_value()) {
      std::fprintf(stderr,
                   "--emit-cert: sequence did not verify, nothing to "
                   "certify\n");
      return 2;
    }
    if (!save_certificate(*result.certificate, flags.emit_cert_path)) return 1;
    std::printf("certificate: sequence (%zu steps) written to %s\n",
                result.report.steps.size(), flags.emit_cert_path.c_str());
  }
  return command::exit_code(result.outcome);
}

int cmd_discover(const std::vector<std::string>& files, const Flags& flags) {
  RECache cache;
  const bool use_cache = !flags.re_cache_path.empty();
  if (use_cache && !warm_start(cache, flags.re_cache_path)) return 2;

  discover::DiscoverOptions options;
  options.target_length = flags.target_length;
  options.beam_width = flags.beam;
  options.max_expansions = flags.max_expansions;
  options.max_finds = flags.max_finds;
  options.threads = flags.threads == 0 ? 1 : flags.threads;
  options.step_nodes = flags.step_nodes;
  options.total_nodes = flags.max_nodes;  // --max-nodes = total node pool
  options.checkpoint_path = flags.checkpoint_path;
  options.checkpoint_every = flags.checkpoint_every;
  if (use_cache) options.cache = &cache;
  // The budget carries the deadline and the signal chain; the node pool is
  // steered by the driver itself, so the budget's own node limit stays off.
  SearchBudget budget_storage;
  const command::DiscoverResult run = command::run_discover(
      files, options, *flags.configure_deadline(budget_storage));
  if (run.outcome == command::Outcome::kInvalid) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
    return 1;
  }
  const discover::DiscoverResult& result = run.discovery;
  std::printf("%s", result.log.c_str());
  std::printf("status: %s\n", discover::to_string(result.status));
  std::printf("stats: %s\n", result.stats.to_string().c_str());

  if (use_cache && run.outcome != command::Outcome::kCorrupt &&
      !save_cache(cache, flags.re_cache_path)) {
    return 1;
  }
  if (!flags.emit_cert_path.empty()) {
    for (std::size_t k = 0; k < result.found.size(); ++k) {
      const std::string path = k == 0 ? flags.emit_cert_path
                                      : flags.emit_cert_path + "." + std::to_string(k);
      if (!save_certificate(result.found[k].certificate, path)) return 1;
      std::printf("certificate: find %zu (%zu steps) written to %s\n", k,
                  result.found[k].chain.size() - 1, path.c_str());
    }
  }
  if (run.outcome == command::Outcome::kExhausted) {
    if (budget_storage.exhausted()) return report_exhausted(budget_storage);
    std::fprintf(stderr, "budget exhausted: search caps hit before a "
                         "definitive verdict (raise --max-expansions / "
                         "--max-nodes, or resume via --checkpoint)\n");
  }
  return command::exit_code(run.outcome, /*no_exit=*/1);
}

/// Wall time of the simulator's phases; `simulate` reports it on stderr.
struct SimulateTimings {
  double generate_ms = 0.0;
  double csr_build_ms = 0.0;
  double rounds_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Streams an instance spec (cycle:<n>, path:<n>, torus:<w>x<h>,
/// regular:<n>x<d>) into a validated CsrGraph without materializing
/// per-node adjacency — million-node instances stay flat. A spec whose node
/// or edge count does not fit the CSR's 32-bit ids is rejected before
/// anything is generated.
std::optional<CsrGraph> load_instance(const std::string& spec, std::uint64_t seed,
                                      SimulateTimings* timings) {
  constexpr std::uint64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  constexpr std::uint64_t kMaxEdges = CsrGraph::kMaxEdges;
  const auto fits = [&](bool ok) {
    if (!ok) {
      std::fprintf(stderr,
                   "instance '%s' is too large: the simulator's 32-bit ids allow "
                   "at most %llu nodes and %llu edges\n",
                   spec.c_str(), static_cast<unsigned long long>(kMaxNodes),
                   static_cast<unsigned long long>(kMaxEdges));
    }
    return ok;
  };
  std::optional<CsrGraph> result;
  CsrBuildError error;
  const auto start = std::chrono::steady_clock::now();
  const auto finish = [&](CsrStreamBuilder& builder) {
    timings->generate_ms = ms_since(start);
    const auto build_start = std::chrono::steady_clock::now();
    result = builder.finish(&error);
    timings->csr_build_ms = ms_since(build_start);
    if (!result) std::fprintf(stderr, "%s\n", error.message.c_str());
  };
  const std::string_view view = spec;
  if (view.rfind("cycle:", 0) == 0) {
    std::uint64_t n = 0;
    if (!parse_u64(view.substr(6), &n) || n < 3) {
      std::fprintf(stderr, "cycle:<n> needs an integer n >= 3\n");
      return std::nullopt;
    }
    if (!fits(n <= kMaxNodes && n <= kMaxEdges)) return std::nullopt;
    CsrStreamBuilder builder(n);
    stream_cycle(n, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (view.rfind("path:", 0) == 0) {
    std::uint64_t n = 0;
    if (!parse_u64(view.substr(5), &n) || n < 2) {
      std::fprintf(stderr, "path:<n> needs an integer n >= 2\n");
      return std::nullopt;
    }
    if (!fits(n <= kMaxNodes && n - 1 <= kMaxEdges)) return std::nullopt;
    CsrStreamBuilder builder(n);
    stream_path(n, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (view.rfind("torus:", 0) == 0) {
    std::uint64_t w = 0, h = 0;
    if (!parse_dims(view.substr(6), &w, &h) || w < 3 || h < 3) {
      std::fprintf(stderr, "torus:<w>x<h> needs integers w, h >= 3\n");
      return std::nullopt;
    }
    // Divide first: w * h itself may overflow 64 bits.
    if (!fits(w <= kMaxNodes / h && 2 * w * h <= kMaxEdges)) return std::nullopt;
    CsrStreamBuilder builder(w * h);
    stream_torus(w, h, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (view.rfind("regular:", 0) == 0) {
    std::uint64_t n = 0, d = 0;
    if (!parse_dims(view.substr(8), &n, &d)) {
      std::fprintf(stderr, "regular:<n>x<d> is malformed\n");
      return std::nullopt;
    }
    // d >= n has no simple graph; the generator refuses it before
    // allocating, and below it n * d cannot overflow.
    if (!fits(n <= kMaxNodes && (d >= n || n * d / 2 <= kMaxEdges))) {
      return std::nullopt;
    }
    Rng rng(seed);
    CsrStreamBuilder builder(n);
    if (!stream_random_regular(n, d, rng,
                               [&](NodeId u, NodeId v) { builder.add_edge(u, v); })) {
      std::fprintf(stderr, "no simple %zu-regular graph on %zu nodes (n*d must "
                   "be even, d < n)\n", d, n);
      return std::nullopt;
    }
    finish(builder);
  } else {
    std::fprintf(stderr,
                 "bad instance spec '%s' (want cycle:<n>, path:<n>, "
                 "torus:<w>x<h>, or regular:<n>x<d>)\n",
                 spec.c_str());
  }
  return result;
}

int cmd_simulate(const std::string& alg_spec, const std::string& instance_spec,
                 const Flags& flags) {
  const std::size_t threads = flags.threads;
  const std::size_t max_rounds = flags.rounds;
  const std::uint64_t seed = flags.seed;
  SimulateTimings timings;
  auto csr = load_instance(instance_spec, seed, &timings);
  if (!csr) return 1;

  // color-class-mis is a Supported-model algorithm: it reads the support
  // topology and uid table from the NodeContext, so materialize them.
  std::unique_ptr<Algorithm> algorithm;
  Graph support;
  CsrNetworkConfig config;
  std::size_t in_count = 0;  // filled from the algorithm's output below
  enum class Output { kMis, kColors } output = Output::kMis;
  if (alg_spec == "luby-mis") {
    algorithm = std::make_unique<LubyMis>(seed);
  } else if (alg_spec == "greedy-mis") {
    algorithm = std::make_unique<GreedyUidMis>();
  } else if (alg_spec == "color-class-mis") {
    support = csr->to_graph();
    config.support = &support;
    algorithm = std::make_unique<ColorClassMis>();
  } else if (alg_spec == "ring-coloring") {
    if (csr->max_degree() != 2 || csr->min_degree() != 2) {
      std::fprintf(stderr, "ring-coloring needs a 2-regular instance\n");
      return 1;
    }
    algorithm = std::make_unique<RingColoring>();
    output = Output::kColors;
  } else {
    std::fprintf(stderr,
                 "bad algorithm '%s' (want luby-mis, greedy-mis, "
                 "color-class-mis, or ring-coloring)\n",
                 alg_spec.c_str());
    return 1;
  }

  const std::size_t n = csr->node_count();
  const std::size_t edges = csr->edge_count();
  const std::size_t delta = csr->max_degree();
  CsrNetwork net(std::move(*csr), std::move(config));
  SearchBudget budget_storage;
  CsrRunOptions options;
  options.threads = threads;
  options.max_rounds = max_rounds;
  options.budget = flags.configure(budget_storage);
  const auto rounds_start = std::chrono::steady_clock::now();
  const CsrRunResult result = net.run(*algorithm, options);
  timings.rounds_ms = ms_since(rounds_start);
  // Timings go to stderr: stdout stays a deterministic summary.
  std::fprintf(stderr, "simulate: generate_ms=%.1f csr_build_ms=%.1f rounds_ms=%.1f\n",
               timings.generate_ms, timings.csr_build_ms, timings.rounds_ms);

  if (!result.error.empty()) {
    std::fprintf(stderr, "simulate: %s\n", result.error.c_str());
    return 1;
  }
  if (result.exhausted) return report_exhausted(budget_storage);
  if (output == Output::kMis) {
    const auto* luby = dynamic_cast<const LubyMis*>(algorithm.get());
    const auto* greedy = dynamic_cast<const GreedyUidMis*>(algorithm.get());
    const auto* cc = dynamic_cast<const ColorClassMis*>(algorithm.get());
    const std::vector<bool> mis = luby ? luby->in_mis()
                                  : greedy ? greedy->in_mis()
                                           : cc->in_mis();
    for (const bool b : mis) in_count += b ? 1 : 0;
  } else {
    const auto& rc = static_cast<const RingColoring&>(*algorithm);
    std::uint32_t max_color = 0;
    for (const std::uint32_t c : rc.colors()) {
      if (c > max_color) max_color = c;
    }
    in_count = max_color + 1;
  }
  std::printf("%s on %s: n=%zu Δ=%zu edges=%zu threads=%zu\n",
              alg_spec.c_str(), instance_spec.c_str(), n, delta, edges,
              ThreadPool::resolve_threads(threads));
  std::printf("rounds=%zu completed=%s messages=%llu %s=%zu\n", result.rounds,
              result.completed ? "yes" : "no",
              static_cast<unsigned long long>(result.messages_sent),
              output == Output::kMis ? "mis_size" : "colors_used", in_count);
  if (!result.completed) {
    std::fprintf(stderr, "simulate: nodes still live after %zu rounds\n",
                 max_rounds);
    return 2;
  }
  return 0;
}

/// `client <host:port|port> <request words...>` — one request against a
/// running `slocal_serve --listen` instance over the src/net/ client
/// library. Prints the answering line and maps the response class onto the
/// tool's exit-code convention (ok 0, invalid 1, corrupt 2, retryable 3).
int cmd_client(const char* target, const std::string& line) {
  net::ClientOptions options;
  std::string spec = target;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    options.host = spec.substr(0, colon);
    spec.erase(0, colon + 1);
  }
  std::uint64_t port = 0;
  if (!parse_u64(spec, &port) || port == 0 || port > 65535) {
    std::fprintf(stderr, "client: bad port in '%s'\n", target);
    return 64;
  }
  options.port = static_cast<std::uint16_t>(port);
  net::Client client;
  std::string error;
  if (!client.connect(options, &error)) {
    std::fprintf(stderr, "client: connect %s:%u: %s\n", options.host.c_str(),
                 static_cast<unsigned>(options.port), error.c_str());
    return 1;
  }
  const auto response = client.request(line, &error);
  if (!response) {
    std::fprintf(stderr, "client: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", response->c_str());
  if (response->rfind("resp ", 0) != 0) return 0;  // pong / stats / ...
  std::istringstream in(*response);
  std::string resp, id, cls;
  in >> resp >> id >> cls;
  return command::exit_code(cls == "invalid"     ? command::Outcome::kInvalid
                            : cls == "corrupt"   ? command::Outcome::kCorrupt
                            : cls == "retryable" ? command::Outcome::kExhausted
                                                 : command::Outcome::kYes);
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: slocal_tool <command> [args] [flags]\n"
               "commands:\n"
               "  print      <file>                  parse + constraints + diagrams\n"
               "  re         <file> [steps]          apply round elimination\n"
               "  fixed      <file>                  fixed-point check\n"
               "  lift       <file> <D> <r>          materialize lift_{D,r}\n"
               "  solve      <file> <support>        bipartite solvability\n"
               "  zero       <file> <support>        0-round Supported-LOCAL decision\n"
               "  portfolio  <file> <support>        race backtracking vs CDCL\n"
               "  sweep      <file> <D> <r> <family> lift solvability sweep\n"
               "  sequence   <file> [<file>...]      verify a lower-bound sequence\n"
               "  discover   <file> [<file>...]      search the relaxation space\n"
               "                                     for lower-bound sequences\n"
               "                                     over the given family\n"
               "  check-cert <file>                  validate a proof certificate\n"
               "  client     <[host:]port> <words..> send one request line to a\n"
               "                                     slocal_serve --listen server\n"
               "                                     and print the response (exit:\n"
               "                                     ok 0, invalid 1, corrupt 2,\n"
               "                                     retryable 3)\n"
               "  simulate   <algorithm> <instance>  batched CSR simulation:\n"
               "                                     luby-mis | greedy-mis |\n"
               "                                     color-class-mis | ring-coloring\n"
               "                                     on cycle:<n> | path:<n> |\n"
               "                                     torus:<w>x<h> | regular:<n>x<d>\n"
               "flags:\n"
               "  --timeout-ms=N --max-nodes=N       search budget (exit 3 when hit)\n"
               "  --threads=N                        simulate: worker threads (0 =\n"
               "                                     all cores; output identical)\n"
               "  --rounds=N                         simulate: round cap (exit 2\n"
               "                                     when nodes are still live)\n"
               "  --seed=N                           simulate: instance + algorithm\n"
               "                                     seed\n"
               "  --scratch                          sweep: re-encode each support\n"
               "  --repeat=N                         sequence: repeat last problem\n"
               "  --re-cache=PATH                    sequence/discover: persistent\n"
               "                                     RE cache\n"
               "  --emit-cert=PATH                   sequence/sweep/discover: write\n"
               "                                     proof certificates for\n"
               "                                     check-cert / cert_check\n"
               "  --target-length=K                  discover: verified steps a\n"
               "                                     chain needs (default 1)\n"
               "  --beam=N --max-expansions=N        discover: frontier width and\n"
               "                                     expansion cap\n"
               "  --max-finds=N --step-nodes=N       discover: finds wanted; per-\n"
               "                                     expansion node cap when\n"
               "                                     --max-nodes sets no pool\n"
               "  --checkpoint=PATH                  discover: crash-safe frontier\n"
               "                                     checkpoint (auto-resumed;\n"
               "                                     corrupt file = exit 2)\n"
               "  --checkpoint-every=N               discover: checkpoint cadence\n"
               "                                     in expansions\n"
               "exit codes: 0 ok/valid, 1 error/invalid, 2 unsolvable/not-fixed/\n"
               "            malformed cert, 3 budget exhausted, 64 usage (incl.\n"
               "            any unknown --flag)\n");
}

int usage() {
  print_usage(stderr);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  install_signal_handlers();
  // Split flags from positional arguments.
  Flags flags;
  const std::pair<std::string_view, std::uint64_t*> numeric_flags[] = {
      {"--timeout-ms=", &flags.timeout_ms},
      {"--max-nodes=", &flags.max_nodes},
      {"--repeat=", &flags.repeat},
      {"--threads=", &flags.threads},
      {"--rounds=", &flags.rounds},
      {"--seed=", &flags.seed},
      {"--target-length=", &flags.target_length},
      {"--beam=", &flags.beam},
      {"--max-expansions=", &flags.max_expansions},
      {"--max-finds=", &flags.max_finds},
      {"--step-nodes=", &flags.step_nodes},
      {"--checkpoint-every=", &flags.checkpoint_every},
  };
  const std::pair<std::string_view, std::string*> path_flags[] = {
      {"--re-cache=", &flags.re_cache_path},
      {"--emit-cert=", &flags.emit_cert_path},
      {"--checkpoint=", &flags.checkpoint_path},
  };
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--scratch") {
      flags.scratch = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      args.push_back(argv[i]);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = eq == std::string_view::npos ? arg : arg.substr(0, eq + 1);
    const std::string_view value = arg.substr(name.size());
    bool known = false;
    for (const auto& [flag, target] : numeric_flags) {
      if (name != flag) continue;
      known = true;
      if (!parse_u64(value, target)) {
        std::fprintf(stderr, "malformed value in '%s' (want a non-negative integer)\n",
                     argv[i]);
        return usage();
      }
    }
    for (const auto& [flag, target] : path_flags) {
      if (name != flag) continue;
      known = true;
      *target = value;
    }
    if (!known) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return usage();
    }
  }
  if (args.size() < 2) return usage();
  const std::string cmd = args[0];
  const std::vector<std::string> files(args.begin() + 1, args.end());
  if (cmd == "check-cert") return cmd_check_cert(args[1]);
  if (cmd == "client") {
    if (args.size() < 3) return usage();
    std::string line;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (i > 2) line += ' ';
      line += args[i];
    }
    return cmd_client(args[1], line);
  }
  if (cmd == "simulate") {
    if (args.size() < 3) return usage();
    return cmd_simulate(args[1], args[2], flags);
  }
  if (cmd == "sequence") return cmd_sequence(files, flags);
  if (cmd == "discover") return cmd_discover(files, flags);
  // Numeric positionals parse as strictly as the numeric flags. `re`
  // without a step count runs one step.
  std::uint64_t numbers[2] = {1, 0};
  const auto numeric = [&](std::size_t from, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (!parse_u64(args[from + i], &numbers[i])) {
        std::fprintf(stderr, "malformed number '%s' (want a non-negative integer)\n",
                     args[from + i]);
        return false;
      }
    }
    return true;
  };
  if (cmd == "sweep" && args.size() >= 5) {
    if (!numeric(2, 2)) return usage();
    return cmd_sweep(args[1], numbers[0], numbers[1], args[4], flags);
  }
  const auto pi = load_problem(args[1]);
  if (!pi) return 1;
  if (cmd == "print") return cmd_print(*pi);
  if (cmd == "re") {
    if (args.size() > 2 && !numeric(2, 1)) return usage();
    return cmd_re(*pi, numbers[0], flags);
  }
  if (cmd == "fixed") return cmd_fixed(*pi, flags);
  if (cmd == "lift" && args.size() >= 4) {
    if (!numeric(2, 2)) return usage();
    return cmd_lift(*pi, numbers[0], numbers[1]);
  }
  if ((cmd == "solve" || cmd == "zero" || cmd == "portfolio") && args.size() >= 3) {
    const auto support = load_support(args[2]);
    if (!support) return 1;
    if (cmd == "solve") return cmd_solve(*pi, *support, flags);
    if (cmd == "zero") return cmd_zero(*pi, *support, flags);
    return cmd_portfolio(*pi, *support, flags);
  }
  return usage();
}
