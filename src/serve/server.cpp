#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/cert/check.hpp"
#include "src/cert/format.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/lift/sweep.hpp"
#include "src/re/sequence.hpp"

namespace slocal::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Sequence chains longer than this are rejected as invalid before any
/// Problem is copied (an oversized repeat is a memory-amplification vector,
/// not a legitimate workload).
constexpr std::size_t kMaxRepeat = 100'000;

/// Discover requests carry a whole family and an exponential search; these
/// caps keep a single request from monopolizing a worker even before its
/// budget trips.
constexpr std::size_t kMaxDiscoverFamily = 16;
constexpr std::size_t kMaxDiscoverTarget = 64;
constexpr std::size_t kMaxDiscoverExpansions = 4096;

std::optional<Problem> load_problem_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ParseError parse_error;
  auto problem = parse_problem_text(path, buffer.str(), &parse_error);
  if (!problem) *error = "parse error: " + parse_error.to_string();
  return problem;
}

/// Sweep families larger than this are rejected as invalid: one request must
/// not pin a worker on an unbounded support list.
constexpr std::size_t kMaxSweepSupports = 257;

/// parse_sweep_family_spec plus the service's support cap.
std::optional<SweepFamilySpec> parse_capped_family(const std::string& spec,
                                                   std::size_t big_delta,
                                                   std::size_t big_r,
                                                   std::string* error) {
  auto parsed = parse_sweep_family_spec(spec, big_delta, big_r, error);
  if (parsed && parsed->hi - parsed->lo >= kMaxSweepSupports) {
    *error = "family too large (more than " + std::to_string(kMaxSweepSupports) +
             " supports)";
    return std::nullopt;
  }
  return parsed;
}

/// Parses a sweep family spec into laid-out-for-reuse supports.
std::optional<std::vector<BipartiteGraph>> parse_family(const std::string& spec,
                                                        std::size_t big_delta,
                                                        std::size_t big_r,
                                                        std::string* error) {
  const auto parsed = parse_capped_family(spec, big_delta, big_r, error);
  if (!parsed) return std::nullopt;
  if (parsed->cycles) return make_cycle_supports(parsed->lo, parsed->hi);
  return make_gadget_supports(big_delta, big_r, parsed->lo, parsed->hi);
}

/// Comma-joins step verdicts the way every sweep response spells them.
std::string join_verdicts(const std::vector<Verdict>& verdicts) {
  std::string joined;
  for (const Verdict v : verdicts) {
    if (!joined.empty()) joined += ',';
    joined += to_string(v);
  }
  return joined;
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options),
      injector_(options.faults),
      checkpoints_(options.checkpoint_path) {
  options_.workers = std::max<std::size_t>(1, options_.workers);
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  recovery_ = checkpoints_.recover(&cache_, &recovery_detail_);
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Server::~Server() {
  request_shutdown();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  // The pool destructor drains every submitted task; registry, cache, and
  // sink outlive it (declared earlier / still alive here).
  pool_.reset();
}

void Server::set_response_sink(Sink sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_ = std::move(sink);
}

void Server::set_sweep_interceptor(
    std::function<void(AdmittedSweep&&)> interceptor) {
  const std::lock_guard<std::mutex> lock(interceptor_mutex_);
  interceptor_ = std::move(interceptor);
}

std::string Server::ready_line() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ready workers=%zu queue=%zu checkpoint=%s recovered=%s "
                "cache_entries=%zu",
                options_.workers, options_.queue_capacity,
                checkpoints_.enabled() ? checkpoints_.path().c_str() : "off",
                CheckpointManager::to_string(recovery_), cache_.size());
  return buf;
}

void Server::emit(const Response& response, const Sink& sink) {
  emit_raw(format_response(response), sink);
}

void Server::emit_raw(const std::string& line, const Sink& sink) {
  // A per-line sink (socket transport) routes around the global one; it
  // does its own serialization per connection.
  if (sink) {
    sink(line);
    return;
  }
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_) sink_(line);
}

bool Server::handle_line(const std::string& line) {
  return handle_line(line, Sink{});
}

bool Server::handle_line(const std::string& line, Sink sink) {
  if (line.empty() || line[0] == '#') return true;
  {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.received;
  }
  std::string error, error_id;
  const auto request = parse_request_line(line, &error, &error_id);
  if (!request) {
    emit(make_invalid(error_id, error), sink);
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.invalid;
    return true;
  }

  switch (request->kind) {
    case Request::Kind::kPing:
      emit_raw("pong", sink);
      return true;
    case Request::Kind::kStats:
      emit_raw(stats_line(), sink);
      return true;
    case Request::Kind::kCheckpoint: {
      std::string checkpoint_error;
      if (!checkpoints_.enabled()) {
        emit_raw("checkpoint off", sink);
      } else if (checkpoints_.write(cache_, &injector_, &checkpoint_error)) {
        emit_raw("checkpoint ok path=" + checkpoints_.path(), sink);
      } else {
        emit_raw("checkpoint failed " + checkpoint_error, sink);
      }
      return true;
    }
    case Request::Kind::kShutdown:
      request_shutdown();
      return false;
    default:
      break;
  }

  // Admission control for the engine-backed requests.
  if (shutdown_requested()) {
    emit(make_retryable(request->id, "shutdown", options_.retry_after_ms, {}), sink);
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.retryable;
    return true;
  }

  std::shared_ptr<SearchBudget> budget;
  std::uint64_t ticket = 0;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    // Load shedding: each wedged request (watchdog-cancelled but still not
    // returned) eats one slot of effective capacity, so the server keeps a
    // safety margin instead of piling more work behind stuck workers.
    const std::size_t wedged = wedged_now();
    const std::size_t capacity =
        options_.queue_capacity > wedged ? options_.queue_capacity - wedged : 1;
    if (in_flight_ >= capacity) {
      const std::lock_guard<std::mutex> counter_lock(counter_mutex_);
      ++counters_.admission_rejects;
      ++counters_.retryable;
      ticket = 0;
    } else {
      ticket = next_ticket_++;
      budget = std::make_shared<SearchBudget>();
      const std::uint64_t nodes =
          request->max_nodes == 0 ? options_.default_max_nodes
          : options_.default_max_nodes == 0
              ? request->max_nodes
              : std::min(request->max_nodes, options_.default_max_nodes);
      if (nodes > 0) {
        budget->set_node_limit(nodes);
        budget->set_conflict_limit(nodes);
      }
      std::uint64_t timeout =
          request->timeout_ms == 0 ? options_.default_timeout_ms : request->timeout_ms;
      if (options_.max_timeout_ms > 0) {
        timeout = timeout == 0 ? options_.max_timeout_ms
                               : std::min(timeout, options_.max_timeout_ms);
      }
      budget->chain_to(&shutdown_token_);
      InFlight record;
      record.id = request->id;
      record.budget = budget;
      record.deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout == 0 ? 3'600'000 : timeout);
      if (timeout > 0) budget->set_deadline_ms(static_cast<double>(timeout));
      record.sink = sink;
      registry_.emplace(ticket, std::move(record));
      ++in_flight_;
      const std::lock_guard<std::mutex> counter_lock(counter_mutex_);
      ++counters_.admitted;
    }
  }
  if (ticket == 0) {
    emit(make_retryable(request->id, "admission", options_.retry_after_ms, {}), sink);
    return true;
  }

  const FaultInjector::RequestFaults faults = injector_.next_request_faults();
  if (faults.exhaust_budget) budget->cancel();

  // Batched sweep dispatch: an installed interceptor takes custody of every
  // admitted sweep (and later hands it back through submit_admitted_sweep /
  // submit_sweep_group); everything else goes straight to the pool.
  if (request->kind == Request::Kind::kSweep) {
    const std::lock_guard<std::mutex> lock(interceptor_mutex_);
    if (interceptor_) {
      AdmittedSweep admitted;
      admitted.request = *request;
      admitted.ticket = ticket;
      admitted.faults = faults;
      admitted.group_key = sweep_group_key(*request);
      interceptor_(std::move(admitted));
      return true;
    }
  }

  pool_->submit([this, request = *request, ticket, faults] {
    execute(request, ticket, faults);
  });
  return true;
}

std::string Server::sweep_group_key(const Request& request) const {
  // Grouping is keyed on the *canonical* problem (two paths to the same
  // bytes batch together) + lift targets + family kind — members may differ
  // in lo..hi, the group solve takes the union. Requests that would fail
  // validation get no key and bounce through the per-request path.
  std::string error;
  const auto problem = load_problem_file(request.path, &error);
  if (!problem) return {};
  if (request.big_delta < problem->white_degree() ||
      request.big_r < problem->black_degree()) {
    return {};
  }
  const auto spec =
      parse_capped_family(request.family, request.big_delta, request.big_r, &error);
  if (!spec) return {};
  char buf[96];
  const CanonicalForm canonical = canonicalize(*problem);
  std::snprintf(buf, sizeof(buf), "%016llx/%zu/%zu/%s",
                static_cast<unsigned long long>(canonical.fingerprint),
                request.big_delta, request.big_r,
                spec->cycles ? "cycles" : "gadgets");
  return buf;
}

void Server::submit_admitted_sweep(AdmittedSweep&& admitted) {
  {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.sweep_single_dispatch;
  }
  pool_->submit([this, request = std::move(admitted.request),
                 ticket = admitted.ticket, faults = admitted.faults] {
    execute(request, ticket, faults);
  });
}

void Server::submit_sweep_group(std::vector<AdmittedSweep>&& group) {
  if (group.empty()) return;
  if (group.size() == 1) {
    submit_admitted_sweep(std::move(group.front()));
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.sweep_batch_groups;
    counters_.sweep_batch_requests += group.size();
    counters_.sweep_batch_peak = std::max(
        counters_.sweep_batch_peak, static_cast<std::uint64_t>(group.size()));
  }
  pool_->submit([this, group = std::move(group)]() mutable {
    execute_sweep_group(std::move(group));
  });
}

void Server::request_shutdown() {
  // Async-signal-safe: two lock-free atomic operations, nothing else.
  shutdown_.store(true, std::memory_order_release);
  shutdown_token_.cancel();
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(registry_mutex_);
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

bool Server::flush_checkpoint(std::string* error) {
  if (!checkpoints_.enabled()) return true;
  return checkpoints_.write(cache_, nullptr, error);
}

std::size_t Server::wedged_now() const {
  const auto now = Clock::now();
  const auto grace = std::chrono::milliseconds(options_.watchdog_grace_ms);
  std::size_t wedged = 0;
  for (const auto& [ticket, record] : registry_) {
    if (record.cancelled && now - record.cancelled_at > grace) ++wedged;
  }
  return wedged;
}

void Server::watchdog_loop() {
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.watchdog_interval_ms));
    const auto now = Clock::now();
    std::uint64_t cancels = 0;
    std::size_t wedged = 0;
    {
      const std::lock_guard<std::mutex> lock(registry_mutex_);
      for (auto& [ticket, record] : registry_) {
        if (!record.cancelled && now > record.deadline) {
          // Cooperative cancellation: the engines poll the budget and
          // translate the trip into kExhausted — never a flipped verdict.
          record.budget->cancel();
          record.cancelled = true;
          record.cancelled_at = now;
          ++cancels;
        }
      }
      wedged = wedged_now();
    }
    if (cancels > 0 || wedged > 0) {
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      counters_.watchdog_cancels += cancels;
      counters_.wedged_peak = std::max(counters_.wedged_peak,
                                       static_cast<std::uint64_t>(wedged));
    }
  }
}

void Server::execute(const Request& request, std::uint64_t ticket,
                     FaultInjector::RequestFaults faults) {
  // Injected wedge: sleep without polling the budget — exactly the
  // misbehaving-request shape the watchdog exists for. The budget trips
  // (deadline or watchdog cancel) while this thread is unresponsive; the
  // check below then sheds the request as retryable.
  if (faults.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(faults.delay_ms));
  }

  std::shared_ptr<SearchBudget> budget;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(ticket);
    if (it != registry_.end()) budget = it->second.budget;
  }
  if (!budget) return;  // unreachable: finish_request is the only eraser

  Response response;
  if (budget->halted()) {
    response = make_retryable(request.id, "", options_.retry_after_ms,
                              budget->consumption());
  } else {
    switch (request.kind) {
      case Request::Kind::kSequence:
        response = run_sequence(request, *budget);
        break;
      case Request::Kind::kSweep:
        response = run_sweep(request, *budget);
        break;
      case Request::Kind::kCheckCert:
        response = run_check_cert(request, *budget);
        break;
      case Request::Kind::kDiscover:
        response = run_discover(request, *budget);
        break;
      default:
        response = make_invalid(request.id, "not an executable request");
        break;
    }
  }
  finish_request(ticket, response);
}

void Server::execute_sweep_group(std::vector<AdmittedSweep> group) {
  // Injected wedge, batched flavor: like the per-request path, sleep
  // without polling any budget — the watchdog cancels around the group.
  std::uint64_t delay_ms = 0;
  for (const AdmittedSweep& a : group) {
    delay_ms = std::max(delay_ms, a.faults.delay_ms);
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }

  std::vector<std::shared_ptr<SearchBudget>> budgets(group.size());
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto it = registry_.find(group[i].ticket);
      if (it != registry_.end()) budgets[i] = it->second.budget;
    }
  }

  const auto shed = [&](std::size_t i) {
    const BudgetConsumption consumed =
        budgets[i] ? budgets[i]->consumption() : BudgetConsumption{};
    finish_request(group[i].ticket, make_retryable(group[i].request.id, "",
                                                   options_.retry_after_ms,
                                                   consumed));
  };

  // The executor is the first member whose budget is still live; members
  // already tripped (injected exhaustion, watchdog cancel, shutdown) are
  // shed as retryable — a fault may delay a verdict, never flip one.
  std::size_t executor = group.size();
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (budgets[i] && !budgets[i]->halted()) {
      executor = i;
      break;
    }
  }
  if (executor == group.size()) {
    for (std::size_t i = 0; i < group.size(); ++i) shed(i);
    return;
  }

  const auto invalid_all = [&](const std::string& message) {
    for (const AdmittedSweep& a : group) {
      finish_request(a.ticket, make_invalid(a.request.id, message));
    }
  };

  // Load and validate once off the executor: every member shares the group
  // key, so the canonical problem, lift targets, and family kind agree.
  const Request& lead = group[executor].request;
  SearchBudget& budget = *budgets[executor];
  std::string error;
  const auto problem = load_problem_file(lead.path, &error);
  if (!problem) {
    invalid_all(error);
    return;
  }
  std::vector<SweepGroupMember> members;
  members.reserve(group.size());
  bool cycles = false;
  for (const AdmittedSweep& a : group) {
    const auto spec = parse_capped_family(a.request.family, a.request.big_delta,
                                          a.request.big_r, &error);
    if (!spec) {
      invalid_all(error);  // unreachable: the group key already parsed it
      return;
    }
    cycles = spec->cycles;
    members.push_back(SweepGroupMember{spec->lo, spec->hi});
  }

  LiftSweepOptions options;
  options.incremental = true;
  options.certify_cores = false;
  options.budget = &budget;
  const SweepGroupResult result = run_lift_sweep_group(
      *problem, lead.big_delta, lead.big_r, cycles, members, options);
  if (!result.lift_materialized) {
    invalid_all("lift too large to materialize");
    return;
  }

  char key_buf[96];
  const CanonicalForm canonical = canonicalize(*problem);
  std::snprintf(key_buf, sizeof(key_buf), "%016llx/%zu/%zu/",
                static_cast<unsigned long long>(canonical.fingerprint),
                lead.big_delta, lead.big_r);
  const std::string group_size = std::to_string(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    // Shed members whose own budget tripped while the executor solved
    // (watchdog cancel of an overdue member, injected exhaustion) — their
    // retry contract stays exactly the per-request one.
    if (i != executor && budgets[i] && budgets[i]->halted()) {
      shed(i);
      continue;
    }
    const std::vector<Verdict>& verdicts = result.member_verdicts[i];
    bool exhausted = false;
    for (const Verdict v : verdicts) exhausted = exhausted || v == Verdict::kExhausted;
    BudgetConsumption consumed =
        budgets[i] ? budgets[i]->consumption() : BudgetConsumption{};
    if (i == executor) {
      consumed.conflicts = std::max(consumed.conflicts, result.sweep.total_conflicts);
    }
    if (exhausted) {
      if (consumed.reason == ExhaustReason::kNone) {
        consumed.reason = ExhaustReason::kConflicts;
      }
      finish_request(group[i].ticket,
                     make_retryable(group[i].request.id, "",
                                    options_.retry_after_ms, consumed));
      continue;
    }
    const std::string joined = join_verdicts(verdicts);
    {
      // Fully decided slices feed the memo exactly like budget-clean
      // per-request sweeps, so later singletons replay them for free.
      const std::lock_guard<std::mutex> lock(memo_mutex_);
      sweep_memo_.emplace(std::string(key_buf) + group[i].request.family,
                          SweepMemoEntry{joined, verdicts.size()});
    }
    finish_request(group[i].ticket,
                   make_ok(group[i].request.id,
                           "verdicts=" + joined + " supports=" +
                               std::to_string(verdicts.size()) + " batch=" +
                               group_size,
                           consumed));
  }
}

Response Server::run_sequence(const Request& request, SearchBudget& budget) {
  std::string error;
  const auto problem = load_problem_file(request.path, &error);
  if (!problem) return make_invalid(request.id, error);
  if (request.repeat > kMaxRepeat) {
    return make_invalid(request.id, "repeat exceeds " + std::to_string(kMaxRepeat));
  }

  // Π_0 plus `repeat` copies: the fixed-point chain workload. Requests run
  // serially inside (threads = 1) so cross-request parallelism comes from
  // the worker pool, not from nested pools fighting over cores.
  std::vector<Problem> problems(request.repeat + 1, *problem);
  REOptions options;
  options.threads = 1;
  options.max_nodes = budget.node_limit();
  options.budget = &budget;
  options.cache = &cache_;
  REStats stats;
  options.stats = &stats;
  const SequenceReport report = verify_lower_bound_sequence(problems, options);

  BudgetConsumption consumed = budget.consumption();
  std::uint64_t search_nodes = stats.dfs_nodes;
  bool exhausted = budget.halted();
  for (const SequenceStepReport& step : report.steps) {
    search_nodes += step.relaxation_nodes;
    exhausted = exhausted || step.re_budget_exhausted ||
                step.relaxation_verdict == Verdict::kExhausted;
  }
  consumed.nodes = std::max(consumed.nodes, search_nodes);
  if (exhausted) {
    if (consumed.reason == ExhaustReason::kNone) consumed.reason = ExhaustReason::kNodes;
    return make_retryable(request.id, "", options_.retry_after_ms, consumed);
  }
  char body[160];
  std::snprintf(body, sizeof(body),
                "verdict=%s steps=%zu cache_hits=%llu cache_misses=%llu",
                report.valid ? "valid" : "invalid", report.steps.size(),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
  return make_ok(request.id, body, consumed);
}

Response Server::run_sweep(const Request& request, SearchBudget& budget) {
  std::string error;
  const auto problem = load_problem_file(request.path, &error);
  if (!problem) return make_invalid(request.id, error);
  if (request.big_delta < problem->white_degree() ||
      request.big_r < problem->black_degree()) {
    return make_invalid(request.id, "lift targets must dominate the problem degrees");
  }
  const auto supports =
      parse_family(request.family, request.big_delta, request.big_r, &error);
  if (!supports) return make_invalid(request.id, error);

  // The cross-request snapshot pool: completed sweeps are keyed by the
  // canonical fingerprint of the problem plus the lift targets and family,
  // so a repeat of an already-decided sweep replays its verdicts without
  // touching a solver. Only budget-clean runs enter the memo.
  char key_buf[96];
  const CanonicalForm canonical = canonicalize(*problem);
  std::snprintf(key_buf, sizeof(key_buf), "%016llx/%zu/%zu/",
                static_cast<unsigned long long>(canonical.fingerprint),
                request.big_delta, request.big_r);
  const std::string memo_key = std::string(key_buf) + request.family;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = sweep_memo_.find(memo_key);
    if (it != sweep_memo_.end()) {
      {
        const std::lock_guard<std::mutex> counter_lock(counter_mutex_);
        ++counters_.sweep_memo_hits;
      }
      return make_ok(request.id,
                     "verdicts=" + it->second.verdicts + " supports=" +
                         std::to_string(it->second.supports) + " memo=hit",
                     budget.consumption());
    }
  }

  LiftSweepOptions options;
  options.incremental = true;
  options.certify_cores = false;
  options.budget = &budget;
  const LiftSweepResult result =
      run_lift_sweep(*problem, request.big_delta, request.big_r, *supports, options);
  if (!result.lift_materialized) {
    return make_invalid(request.id, "lift too large to materialize");
  }

  std::string verdicts;
  bool exhausted = budget.halted();
  for (const LiftSweepStep& step : result.steps) {
    if (!verdicts.empty()) verdicts += ',';
    verdicts += to_string(step.verdict);
    exhausted = exhausted || step.verdict == Verdict::kExhausted;
  }
  BudgetConsumption consumed = budget.consumption();
  consumed.conflicts = std::max(consumed.conflicts, result.total_conflicts);
  if (exhausted) {
    if (consumed.reason == ExhaustReason::kNone) {
      consumed.reason = ExhaustReason::kConflicts;
    }
    return make_retryable(request.id, "", options_.retry_after_ms, consumed);
  }
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    sweep_memo_.emplace(memo_key,
                        SweepMemoEntry{verdicts, result.steps.size()});
  }
  return make_ok(request.id,
                 "verdicts=" + verdicts + " supports=" +
                     std::to_string(result.steps.size()) + " clauses=" +
                     std::to_string(result.total_clauses) + " memo=miss",
                 consumed);
}

Response Server::run_check_cert(const Request& request, SearchBudget& budget) {
  cert::Certificate certificate;
  std::string error;
  if (!cert::load_certificate(request.path, &certificate, &error)) {
    // Fail-closed: a torn or tampered certificate yields no verdict at all.
    return make_corrupt(request.id, error);
  }
  const cert::CertCheckResult result = cert::check_certificate(certificate);
  const char* verdict =
      result.status == cert::CertStatus::kValid ? "valid" : "invalid";
  return make_ok(request.id, std::string("verdict=") + verdict,
                 budget.consumption());
}

Response Server::run_discover(const Request& request, SearchBudget& budget) {
  // request.path is a comma-joined family; the first file doubles as the
  // search root, exactly like the CLI's positional list.
  std::vector<Problem> family;
  std::string error;
  std::size_t start = 0;
  while (start <= request.path.size()) {
    const std::size_t comma = request.path.find(',', start);
    const std::string piece = request.path.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (piece.empty()) return make_invalid(request.id, "empty family member");
    if (family.size() >= kMaxDiscoverFamily) {
      return make_invalid(request.id, "family exceeds " +
                                          std::to_string(kMaxDiscoverFamily) +
                                          " problems");
    }
    const auto problem = load_problem_file(piece, &error);
    if (!problem) return make_invalid(request.id, error);
    family.push_back(*problem);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (request.target > kMaxDiscoverTarget) {
    return make_invalid(request.id, "target exceeds " +
                                        std::to_string(kMaxDiscoverTarget));
  }
  if (request.max_expansions > kMaxDiscoverExpansions) {
    return make_invalid(request.id, "max-expansions exceeds " +
                                        std::to_string(kMaxDiscoverExpansions));
  }

  // Serial inside (threads = 1) like every request: cross-request
  // parallelism comes from the worker pool. The request's node cap becomes
  // the driver's total pool, so the steering rule splits exactly the budget
  // admission granted.
  discover::DiscoverOptions options;
  options.target_length = request.target;
  options.beam_width = request.beam;
  options.max_expansions = request.max_expansions;
  options.threads = 1;
  options.total_nodes = budget.node_limit();
  options.budget = &budget;
  options.cache = &cache_;
  const discover::DiscoverResult result = discover::run_discovery(family, options);

  BudgetConsumption consumed = budget.consumption();
  consumed.nodes = std::max(consumed.nodes, result.stats.nodes_spent);
  switch (result.status) {
    case discover::DiscoverStatus::kFound: {
      const discover::Discovery& find = result.found.front();
      char body[192];
      std::snprintf(body, sizeof(body),
                    "status=found steps=%zu pumped=%d fp=%016llx "
                    "expansions=%llu cache_hits=%llu cache_misses=%llu",
                    find.chain.size() - 1, find.pumped ? 1 : 0,
                    static_cast<unsigned long long>(find.fingerprints.front()),
                    static_cast<unsigned long long>(result.stats.expansions),
                    static_cast<unsigned long long>(result.stats.cache_hits),
                    static_cast<unsigned long long>(result.stats.cache_misses));
      return make_ok(request.id, body, consumed);
    }
    case discover::DiscoverStatus::kNone: {
      char body[128];
      std::snprintf(body, sizeof(body),
                    "status=none expansions=%llu generated=%llu",
                    static_cast<unsigned long long>(result.stats.expansions),
                    static_cast<unsigned long long>(
                        result.stats.candidates_generated));
      return make_ok(request.id, body, consumed);
    }
    case discover::DiscoverStatus::kCorrupt:
      // Unreachable today (requests never name a checkpoint file), but the
      // fail-closed class is the right answer if that ever changes.
      return make_corrupt(request.id, "discover checkpoint failed validation");
    case discover::DiscoverStatus::kExhausted:
      break;
  }
  if (consumed.reason == ExhaustReason::kNone) {
    consumed.reason = ExhaustReason::kNodes;
  }
  return make_retryable(request.id, "", options_.retry_after_ms, consumed);
}

void Server::finish_request(std::uint64_t ticket, const Response& response) {
  // Deregistration comes LAST: once drain() returns, the response has
  // reached the sink, the counters reflect it, and any due checkpoint has
  // been written.
  bool checkpoint_due = false;
  {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    ++counters_.completed;
    switch (response.cls) {
      case ErrorClass::kOk:
        ++counters_.ok;
        break;
      case ErrorClass::kInvalid:
        ++counters_.invalid;
        break;
      case ErrorClass::kRetryable:
        ++counters_.retryable;
        ++counters_.budget_exhausted;
        break;
      case ErrorClass::kCorrupt:
        ++counters_.corrupt;
        break;
    }
    if (options_.checkpoint_every > 0 &&
        ++completed_since_checkpoint_ >= options_.checkpoint_every) {
      completed_since_checkpoint_ = 0;
      checkpoint_due = true;
    }
  }
  Sink sink;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(ticket);
    if (it != registry_.end()) sink = it->second.sink;
  }
  emit(response, sink);
  if (checkpoint_due && checkpoints_.enabled()) {
    std::string error;
    checkpoints_.write(cache_, &injector_, &error);
  }
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_.erase(ticket);
    if (--in_flight_ == 0) drained_cv_.notify_all();
  }
}

ServeCounters Server::counters() const {
  ServeCounters c;
  {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    c = counters_;
  }
  c.checkpoints_written = checkpoints_.writes();
  c.checkpoint_failures = checkpoints_.failures();
  return c;
}

std::string Server::stats_line() const {
  const ServeCounters c = counters();
  const RECacheCounters cache = cache_.counters();
  std::size_t in_flight = 0;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    in_flight = in_flight_;
  }
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "stats received=%llu admitted=%llu admission_rejects=%llu completed=%llu "
      "ok=%llu invalid=%llu retryable=%llu corrupt=%llu budget_exhausted=%llu "
      "watchdog_cancels=%llu wedged_peak=%llu checkpoints_written=%llu "
      "checkpoint_failures=%llu sweep_memo_hits=%llu sweep_batch_groups=%llu "
      "sweep_batch_requests=%llu sweep_batch_peak=%llu "
      "sweep_single_dispatch=%llu cache_entries=%zu "
      "cache_hits=%llu cache_misses=%llu in_flight=%zu",
      static_cast<unsigned long long>(c.received),
      static_cast<unsigned long long>(c.admitted),
      static_cast<unsigned long long>(c.admission_rejects),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.ok),
      static_cast<unsigned long long>(c.invalid),
      static_cast<unsigned long long>(c.retryable),
      static_cast<unsigned long long>(c.corrupt),
      static_cast<unsigned long long>(c.budget_exhausted),
      static_cast<unsigned long long>(c.watchdog_cancels),
      static_cast<unsigned long long>(c.wedged_peak),
      static_cast<unsigned long long>(c.checkpoints_written),
      static_cast<unsigned long long>(c.checkpoint_failures),
      static_cast<unsigned long long>(c.sweep_memo_hits),
      static_cast<unsigned long long>(c.sweep_batch_groups),
      static_cast<unsigned long long>(c.sweep_batch_requests),
      static_cast<unsigned long long>(c.sweep_batch_peak),
      static_cast<unsigned long long>(c.sweep_single_dispatch), cache.entries,
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), in_flight);
  return buf;
}

}  // namespace slocal::serve
