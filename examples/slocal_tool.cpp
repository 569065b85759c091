// slocal_tool — command-line front end to the framework, in the spirit of
// the Round Eliminator: feed a problem in the paper's notation, inspect it,
// speed it up, lift it, or decide solvability on a generated support.
//
// Problem file format: white configurations (one per line), a line "---",
// black configurations (one per line). Tokens: NAME, NAME^k, [A B]^k.
//
//   slocal_tool print     <file>            parse + constraints + diagram DOT
//   slocal_tool re        <file> [steps]    apply RE `steps` times (default 1)
//   slocal_tool fixed     <file>            fixed-point check
//   slocal_tool lift      <file> <Δ> <r>    materialize lift_{Δ,r}
//   slocal_tool solve     <file> <support>  bipartite solvability on a support:
//                                           cycle:<h> | complete:<a>x<b>
//   slocal_tool zero      <file> <support>  0-round Supported-LOCAL decision
//   slocal_tool portfolio <file> <support>  race backtracking vs CDCL seeds
//   slocal_tool sweep     <file> <Δ> <r> <family>
//                                           lift_{Δ,r} solvability across a
//                                           support family, incrementally
//                                           (one SAT solver, assumption
//                                           literals per support; --scratch
//                                           re-encodes each size instead):
//                                           gadgets:<lo>..<hi> | cycles:<lo>..<hi>
//   slocal_tool sequence  <file> [<file>...] verify Π_0, Π_1, ... as a lower
//                                           bound sequence (each Π_i must be
//                                           a relaxation of RE(Π_{i-1})).
//                                           --repeat=N appends N extra copies
//                                           of the last problem (fixed-point
//                                           chains from a single file);
//                                           --re-cache=PATH loads the RE
//                                           cache from PATH if it exists and
//                                           saves it back after the run, so
//                                           repeated invocations warm-start
//                                           (a corrupt cache file is rejected
//                                           with exit 2 — never a wrong
//                                           verdict).
//   slocal_tool check-cert <file>           validate a proof certificate
//                                           (same verdicts and exit codes as
//                                           the standalone cert_check binary)
//   slocal_tool discover  <file> [<file>...] search the relaxation space for
//                                           lower-bound sequences over the
//                                           given problem family (every file
//                                           is a candidate-pool member; the
//                                           non-trivial ones seed the
//                                           frontier). --target-length=K
//                                           asks for K verified steps,
//                                           --beam=N sets the frontier
//                                           width, --max-expansions=N and
//                                           --max-nodes=N bound the search,
//                                           --checkpoint=PATH arms the
//                                           crash-safe frontier checkpoint
//                                           (resumed automatically when the
//                                           file exists; a corrupt file is
//                                           exit 2), --emit-cert=PATH
//                                           writes each find's sequence
//                                           certificate (find k > 0 goes to
//                                           PATH.k). Output is bit-identical
//                                           for every --threads value. Exit
//                                           codes: 0 found, 1 none, 2
//                                           corrupt checkpoint, 3 budget
//                                           exhausted, 64 usage.
//   slocal_tool simulate  <algorithm> <instance>
//                                           run a Supported-model algorithm on
//                                           a streamed instance through the
//                                           batched CSR simulator. Algorithms:
//                                           luby-mis | greedy-mis |
//                                           color-class-mis | ring-coloring.
//                                           Instances: cycle:<n> | path:<n> |
//                                           torus:<w>x<h> | regular:<n>x<d>.
//                                           --threads=N (0 = all cores; output
//                                           is bit-identical either way),
//                                           --rounds=N round cap (exit 2 when
//                                           nodes are still live at the cap),
//                                           --seed=N instance + algorithm
//                                           seed. Budget flags apply: a
//                                           deadline or node limit that trips
//                                           mid-run exits 3 with no verdict.
//
// Certificate emission: `sequence --emit-cert=PATH` writes a sequence
// certificate (fingerprints + relaxation witnesses per step) once the
// sequence verifies; `sweep --emit-cert=PATH` writes a lift-unsat
// certificate (CNF + DRAT refutation) for the first unsolvable support of
// the sweep. Either certificate is validated independently by check-cert /
// cert_check, which re-check witnesses and proofs without the engines.
//
// Budget flags (accepted anywhere after the command):
//   --timeout-ms=N   wall-clock limit for the command's searches
//   --max-nodes=N    search-node limit (forces deterministic serial paths)
// A search that runs out of budget exits with code 3 and prints the budget
// diagnostics; it never misreports as solvable/unsolvable. Any other
// argument starting with "--" that is not a known flag is a usage error
// (exit 64), so a misspelled budget flag can never run a search unbudgeted.
//
// SIGINT/SIGTERM are handled the same way: the handler trips a global
// cancel token every command budget chains to, the engines wind down
// cooperatively (exhausted, never a flipped verdict), `sequence --re-cache`
// still saves the warm cache, and the process exits 3.
#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/cert/format.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/diagram.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/hypergraph.hpp"
#include "src/lift/lift.hpp"
#include "src/net/client.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_graph.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/lift/sweep.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"
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

struct BudgetFlags {
  std::uint64_t timeout_ms = 0;
  std::uint64_t max_nodes = 0;

  /// The shared budget for a command. Always non-null: even with no limit
  /// flags the budget carries the signal chain (an unlimited budget only
  /// polls, so behavior without a signal is unchanged).
  SearchBudget* configure(SearchBudget& storage) const {
    if (timeout_ms > 0) storage.set_deadline_ms(static_cast<double>(timeout_ms));
    if (max_nodes > 0) storage.set_node_limit(max_nodes);
    storage.chain_to(&g_signal_token);
    return &storage;
  }
};

int report_exhausted(const SearchBudget& budget) {
  std::fprintf(stderr, "budget exhausted: %s\n", budget.describe().c_str());
  return kExitExhausted;
}

std::optional<Problem> load_problem(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ParseError error;
  auto problem = parse_problem_text(path, buffer.str(), &error);
  if (!problem) {
    std::fprintf(stderr, "%s: parse error: %s\n", path, error.to_string().c_str());
  }
  return problem;
}

std::optional<BipartiteGraph> load_support(const std::string& spec) {
  if (spec.rfind("cycle:", 0) == 0) {
    const std::size_t half = std::strtoul(spec.c_str() + 6, nullptr, 10);
    if (half >= 2) return make_bipartite_cycle(half);
  } else if (spec.rfind("complete:", 0) == 0) {
    const char* body = spec.c_str() + 9;
    char* end = nullptr;
    const std::size_t a = std::strtoul(body, &end, 10);
    if (end != nullptr && *end == 'x') {
      const std::size_t b = std::strtoul(end + 1, nullptr, 10);
      if (a >= 1 && b >= 1) return make_complete_bipartite(a, b);
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

int cmd_re(const Problem& pi, int steps, const BudgetFlags& flags) {
  Problem current = pi;
  SearchBudget budget_storage;
  REOptions options;
  options.max_configurations = 5'000'000;
  options.max_nodes = flags.max_nodes;
  // Deadline plus the signal chain; options.max_nodes owns the node cap, so
  // the budget itself stays unlimited and only polls.
  if (flags.timeout_ms > 0) {
    budget_storage.set_deadline_ms(static_cast<double>(flags.timeout_ms));
  }
  budget_storage.chain_to(&g_signal_token);
  options.budget = &budget_storage;
  REStats stats;
  options.stats = &stats;
  for (int s = 1; s <= steps; ++s) {
    const auto next = round_eliminate(current, options);
    if (!next) {
      if (stats.budget_exhausted > 0) {
        std::fprintf(stderr, "step %d: %s\n", s, stats.to_string().c_str());
        std::fprintf(stderr, "step %d: budget exhausted\n", s);
        return kExitExhausted;
      }
      std::fprintf(stderr, "step %d: resource cap exceeded\n", s);
      return 1;
    }
    current = *next;
    std::printf("after %d step(s): |Sigma|=%zu |W|=%zu |B|=%zu\n", s,
                current.alphabet_size(), current.white().size(),
                current.black().size());
  }
  std::printf("\n%s", format_problem(current).c_str());
  return 0;
}

int cmd_fixed(const Problem& pi, const BudgetFlags& flags) {
  SearchBudget budget_storage;
  REOptions options;
  options.max_nodes = flags.max_nodes;
  if (flags.timeout_ms > 0) {
    budget_storage.set_deadline_ms(static_cast<double>(flags.timeout_ms));
  }
  budget_storage.chain_to(&g_signal_token);
  options.budget = &budget_storage;
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
  if (big_delta < pi.white_degree() || big_r < pi.black_degree()) {
    std::fprintf(stderr, "lift targets must dominate the problem degrees\n");
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
              const BudgetFlags& flags) {
  SearchBudget budget_storage;
  LabelingOptions options;
  // The shared budget owns both limits so its describe() reflects the trip.
  options.budget = flags.configure(budget_storage);
  bool exhausted = false;
  const auto labels = solve_bipartite_labeling(support, pi, options, &exhausted);
  if (!labels && exhausted) {
    if (options.budget != nullptr) return report_exhausted(budget_storage);
    std::fprintf(stderr, "budget exhausted: node cap hit\n");
    return kExitExhausted;
  }
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
             const BudgetFlags& flags) {
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
                  const BudgetFlags& flags) {
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

int cmd_check_cert(const char* path) {
  cert::Certificate certificate;
  std::string error;
  if (!cert::load_certificate(path, &certificate, &error)) {
    std::fprintf(stderr, "check-cert: %s\n", error.c_str());
    return 2;
  }
  const cert::CertCheckResult result = cert::check_certificate(certificate);
  if (result.status != cert::CertStatus::kValid) {
    std::fprintf(stderr, "check-cert: INVALID: %s\n", result.message.c_str());
    return 1;
  }
  std::printf("check-cert: VALID (%s)\n", result.message.c_str());
  return 0;
}

int cmd_sweep(const Problem& pi, std::size_t big_delta, std::size_t big_r,
              const std::string& family_spec, bool scratch,
              const std::string& emit_cert_path, const BudgetFlags& flags) {
  if (big_delta < pi.white_degree() || big_r < pi.black_degree()) {
    std::fprintf(stderr, "lift targets must dominate the problem degrees\n");
    return 1;
  }
  std::string error;
  const auto family = parse_sweep_family_spec(family_spec, big_delta, big_r, &error);
  if (!family) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const std::vector<BipartiteGraph> supports =
      family->cycles ? make_cycle_supports(family->lo, family->hi)
                     : make_gadget_supports(big_delta, big_r, family->lo, family->hi);

  SearchBudget budget_storage;
  LiftSweepOptions options;
  options.incremental = !scratch;
  options.certify_cores = !scratch;
  options.budget = flags.configure(budget_storage);
  const LiftSweepResult result =
      run_lift_sweep(pi, big_delta, big_r, supports, options);
  if (!result.lift_materialized) {
    std::fprintf(stderr, "lift too large to materialize\n");
    return 1;
  }

  std::printf("lift_{%zu,%zu}(%s) sweep over %s (%s)\n", big_delta, big_r,
              pi.name().c_str(), family_spec.c_str(),
              scratch ? "from scratch" : "incremental");
  bool exhausted = false;
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const LiftSweepStep& step = result.steps[i];
    std::printf("  support %zu (%zu edges): %s", i + 1, step.edges,
                to_string(step.verdict));
    if (step.verdict == Verdict::kNo && step.core_nodes > 0) {
      std::printf(" (core: %zu nodes%s)", step.core_nodes,
                  step.core_check == Verdict::kNo ? ", certified" : "");
    }
    std::printf(" [clauses+=%zu wall=%.2fms]\n", step.new_clauses, step.wall_ms);
    exhausted = exhausted || step.verdict == Verdict::kExhausted;
  }
  std::printf("total: %zu clauses, %llu conflicts, %.2f ms\n", result.total_clauses,
              static_cast<unsigned long long>(result.total_conflicts),
              result.total_wall_ms);
  if (exhausted) {
    if (options.budget != nullptr) return report_exhausted(budget_storage);
    std::fprintf(stderr, "budget exhausted\n");
    return kExitExhausted;
  }
  if (!emit_cert_path.empty()) {
    // Certify the first unsolvable support: re-encode it from scratch with
    // proof logging (the incremental sweep interleaves all supports through
    // one solver, so its conflicts are not a per-support refutation).
    std::size_t unsat_index = result.steps.size();
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      if (result.steps[i].verdict == Verdict::kNo) {
        unsat_index = i;
        break;
      }
    }
    if (unsat_index == result.steps.size()) {
      std::fprintf(stderr,
                   "--emit-cert: no unsolvable support in the sweep, "
                   "nothing to certify\n");
      return 1;
    }
    const auto certificate = cert::make_lift_unsat_certificate(
        pi, big_delta, big_r, supports[unsat_index], options.budget);
    if (!certificate.has_value()) {
      std::fprintf(stderr, "--emit-cert: failed to build the certificate\n");
      return 1;
    }
    if (!cert::save_certificate(*certificate, emit_cert_path, &error)) {
      std::fprintf(stderr, "--emit-cert: %s\n", error.c_str());
      return 1;
    }
    std::printf("certificate: lift-unsat for support %zu written to %s\n",
                unsat_index + 1, emit_cert_path.c_str());
  }
  return 0;
}

int cmd_sequence(std::vector<Problem> problems, std::size_t repeat,
                 const std::string& cache_path,
                 const std::string& emit_cert_path, const BudgetFlags& flags) {
  for (std::size_t i = 0; i < repeat; ++i) problems.push_back(problems.back());
  if (problems.size() < 2) {
    std::fprintf(stderr, "sequence needs at least two problems "
                         "(give more files or --repeat=N)\n");
    return 1;
  }

  RECache cache;
  const bool use_cache = !cache_path.empty();
  if (use_cache) {
    // Warm-start from an existing cache file; a missing file is a cold run,
    // but an unreadable or corrupt one is a hard error (exit 2) so a bad
    // cache can never silently degrade into a wrong or uncached verdict.
    std::ifstream probe(cache_path);
    if (probe.good()) {
      std::string error;
      if (!cache.load(cache_path, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
  }

  SearchBudget budget_storage;
  REOptions options;
  options.max_nodes = flags.max_nodes;
  if (flags.timeout_ms > 0) {
    budget_storage.set_deadline_ms(static_cast<double>(flags.timeout_ms));
  }
  budget_storage.chain_to(&g_signal_token);
  options.budget = &budget_storage;
  REStats stats;
  options.stats = &stats;
  if (use_cache) options.cache = &cache;

  // With --emit-cert the emitter drives the verification itself (one run,
  // witnesses kept); without it the plain verifier keeps the lean path.
  SequenceReport report;
  std::optional<cert::Certificate> certificate;
  if (emit_cert_path.empty()) {
    report = verify_lower_bound_sequence(problems, options);
  } else {
    certificate = cert::make_sequence_certificate(problems, options, &report);
  }
  std::printf("%s", report.to_string().c_str());
  if (use_cache) {
    const RECacheCounters c = cache.counters();
    std::printf("re-cache: entries=%zu hits=%llu misses=%llu\n", c.entries,
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses));
    std::string error;
    if (!cache.save(cache_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  std::printf("stats: %s\n", stats.to_string().c_str());

  bool exhausted = false;
  for (const SequenceStepReport& step : report.steps) {
    exhausted = exhausted || step.re_budget_exhausted ||
                step.relaxation_verdict == Verdict::kExhausted;
  }
  if (exhausted) {
    if (options.budget != nullptr) return report_exhausted(budget_storage);
    std::fprintf(stderr, "budget exhausted\n");
    return kExitExhausted;
  }
  if (!emit_cert_path.empty()) {
    if (!certificate.has_value()) {
      std::fprintf(stderr,
                   "--emit-cert: sequence did not verify, nothing to "
                   "certify\n");
      return 2;
    }
    std::string error;
    if (!cert::save_certificate(*certificate, emit_cert_path, &error)) {
      std::fprintf(stderr, "--emit-cert: %s\n", error.c_str());
      return 1;
    }
    std::printf("certificate: sequence (%zu steps) written to %s\n",
                report.steps.size(), emit_cert_path.c_str());
  }
  return report.valid ? 0 : 2;
}

struct DiscoverFlags {
  std::size_t target_length = 1;
  std::size_t beam = 4;
  std::size_t max_expansions = 256;
  std::size_t max_finds = 1;
  std::size_t threads = 1;
  std::uint64_t step_nodes = 0;
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
};

int cmd_discover(const std::vector<Problem>& family,
                 const DiscoverFlags& dflags, const std::string& cache_path,
                 const std::string& emit_cert_path, const BudgetFlags& flags) {
  RECache cache;
  const bool use_cache = !cache_path.empty();
  if (use_cache) {
    // Same contract as `sequence`: missing = cold, corrupt = exit 2.
    std::ifstream probe(cache_path);
    if (probe.good()) {
      std::string error;
      if (!cache.load(cache_path, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
    }
  }

  SearchBudget budget_storage;
  discover::DiscoverOptions options;
  options.target_length = dflags.target_length;
  options.beam_width = dflags.beam;
  options.max_expansions = dflags.max_expansions;
  options.max_finds = dflags.max_finds;
  options.threads = dflags.threads;
  options.step_nodes = dflags.step_nodes;
  options.total_nodes = flags.max_nodes;  // --max-nodes = total node pool
  options.checkpoint_path = dflags.checkpoint_path;
  options.checkpoint_every = dflags.checkpoint_every;
  // The budget carries the deadline and the signal chain; the node pool is
  // steered by the driver itself, so the budget's own node limit stays off.
  if (flags.timeout_ms > 0) {
    budget_storage.set_deadline_ms(static_cast<double>(flags.timeout_ms));
  }
  budget_storage.chain_to(&g_signal_token);
  options.budget = &budget_storage;
  if (use_cache) options.cache = &cache;

  const discover::DiscoverResult result = discover::run_discovery(family, options);
  std::printf("%s", result.log.c_str());
  std::printf("status: %s\n", discover::to_string(result.status));
  std::printf("stats: %s\n", result.stats.to_string().c_str());

  if (use_cache && result.status != discover::DiscoverStatus::kCorrupt) {
    std::string error;
    if (!cache.save(cache_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  if (!emit_cert_path.empty()) {
    for (std::size_t k = 0; k < result.found.size(); ++k) {
      const std::string path =
          k == 0 ? emit_cert_path : emit_cert_path + "." + std::to_string(k);
      std::string error;
      if (!cert::save_certificate(result.found[k].certificate, path, &error)) {
        std::fprintf(stderr, "--emit-cert: %s\n", error.c_str());
        return 1;
      }
      std::printf("certificate: find %zu (%zu steps) written to %s\n", k,
                  result.found[k].chain.size() - 1, path.c_str());
    }
  }
  switch (result.status) {
    case discover::DiscoverStatus::kFound:
      return 0;
    case discover::DiscoverStatus::kNone:
      return 1;
    case discover::DiscoverStatus::kCorrupt:
      return 2;
    case discover::DiscoverStatus::kExhausted:
      if (budget_storage.exhausted()) return report_exhausted(budget_storage);
      std::fprintf(stderr, "budget exhausted: search caps hit before a "
                           "definitive verdict (raise --max-expansions / "
                           "--max-nodes, or resume via --checkpoint)\n");
      return kExitExhausted;
  }
  return 1;
}

/// Streams an instance spec (cycle:<n>, path:<n>, torus:<w>x<h>,
/// regular:<n>x<d>) into a validated CsrGraph without materializing
/// per-node adjacency — million-node instances stay flat.
std::optional<CsrGraph> load_instance(const std::string& spec, std::uint64_t seed) {
  std::optional<CsrGraph> result;
  CsrBuildError error;
  const auto finish = [&](CsrStreamBuilder& builder) {
    result = builder.finish(&error);
    if (!result) std::fprintf(stderr, "%s\n", error.message.c_str());
  };
  const auto parse_pair = [](const char* body, std::size_t* a, std::size_t* b) {
    char* end = nullptr;
    *a = std::strtoul(body, &end, 10);
    if (end == nullptr || *end != 'x') return false;
    *b = std::strtoul(end + 1, nullptr, 10);
    return true;
  };
  if (spec.rfind("cycle:", 0) == 0) {
    const std::size_t n = std::strtoul(spec.c_str() + 6, nullptr, 10);
    if (n < 3) {
      std::fprintf(stderr, "cycle:<n> needs n >= 3\n");
      return std::nullopt;
    }
    CsrStreamBuilder builder(n);
    stream_cycle(n, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (spec.rfind("path:", 0) == 0) {
    const std::size_t n = std::strtoul(spec.c_str() + 5, nullptr, 10);
    if (n < 2) {
      std::fprintf(stderr, "path:<n> needs n >= 2\n");
      return std::nullopt;
    }
    CsrStreamBuilder builder(n);
    stream_path(n, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (spec.rfind("torus:", 0) == 0) {
    std::size_t w = 0, h = 0;
    if (!parse_pair(spec.c_str() + 6, &w, &h) || w < 3 || h < 3) {
      std::fprintf(stderr, "torus:<w>x<h> needs w, h >= 3\n");
      return std::nullopt;
    }
    CsrStreamBuilder builder(w * h);
    stream_torus(w, h, [&](NodeId u, NodeId v) { builder.add_edge(u, v); });
    finish(builder);
  } else if (spec.rfind("regular:", 0) == 0) {
    std::size_t n = 0, d = 0;
    if (!parse_pair(spec.c_str() + 8, &n, &d)) {
      std::fprintf(stderr, "regular:<n>x<d> is malformed\n");
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
                 std::size_t threads, std::size_t max_rounds, std::uint64_t seed,
                 const BudgetFlags& flags) {
  auto csr = load_instance(instance_spec, seed);
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
  const CsrRunResult result = net.run(*algorithm, options);

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
  const unsigned long port = std::strtoul(spec.c_str(), nullptr, 10);
  if (port == 0 || port > 65535) {
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
  if (cls == "invalid") return 1;
  if (cls == "corrupt") return 2;
  if (cls == "retryable") return kExitExhausted;
  return 0;
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
  // Split budget flags from positional arguments.
  BudgetFlags flags;
  bool scratch = false;
  std::size_t repeat = 0;
  DiscoverFlags dflags;
  std::size_t sim_threads = 1;
  std::size_t sim_rounds = 10'000;
  std::uint64_t sim_seed = 1;
  std::string re_cache_path;
  std::string emit_cert_path;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--timeout-ms=", 13) == 0) {
      flags.timeout_ms = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-nodes=", 12) == 0) {
      flags.max_nodes = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strcmp(argv[i], "--scratch") == 0) {
      scratch = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      sim_threads = std::strtoul(argv[i] + 10, nullptr, 10);
      dflags.threads = sim_threads == 0 ? 1 : sim_threads;
    } else if (std::strncmp(argv[i], "--target-length=", 16) == 0) {
      dflags.target_length = std::strtoul(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--beam=", 7) == 0) {
      dflags.beam = std::strtoul(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-expansions=", 17) == 0) {
      dflags.max_expansions = std::strtoul(argv[i] + 17, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-finds=", 12) == 0) {
      dflags.max_finds = std::strtoul(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--step-nodes=", 13) == 0) {
      dflags.step_nodes = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      dflags.checkpoint_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--checkpoint-every=", 19) == 0) {
      dflags.checkpoint_every = std::strtoul(argv[i] + 19, nullptr, 10);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      sim_rounds = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      sim_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--re-cache=", 11) == 0) {
      re_cache_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--emit-cert=", 12) == 0) {
      emit_cert_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout);
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return usage();
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const std::string cmd = args[0];
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
    return cmd_simulate(args[1], args[2], sim_threads, sim_rounds, sim_seed,
                        flags);
  }
  if (cmd == "sequence") {
    std::vector<Problem> problems;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto p = load_problem(args[i]);
      if (!p) return 1;
      problems.push_back(*p);
    }
    return cmd_sequence(std::move(problems), repeat, re_cache_path,
                        emit_cert_path, flags);
  }
  if (cmd == "discover") {
    std::vector<Problem> family;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const auto p = load_problem(args[i]);
      if (!p) return 1;
      family.push_back(*p);
    }
    return cmd_discover(family, dflags, re_cache_path, emit_cert_path, flags);
  }
  const auto pi = load_problem(args[1]);
  if (!pi) return 1;
  if (cmd == "print") return cmd_print(*pi);
  if (cmd == "re") return cmd_re(*pi, args.size() > 2 ? std::atoi(args[2]) : 1, flags);
  if (cmd == "fixed") return cmd_fixed(*pi, flags);
  if (cmd == "lift" && args.size() >= 4) {
    return cmd_lift(*pi, std::strtoul(args[2], nullptr, 10),
                    std::strtoul(args[3], nullptr, 10));
  }
  if (cmd == "sweep" && args.size() >= 5) {
    return cmd_sweep(*pi, std::strtoul(args[2], nullptr, 10),
                     std::strtoul(args[3], nullptr, 10), args[4], scratch,
                     emit_cert_path, flags);
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
