#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/serve/command.hpp"
#include "src/util/strings.hpp"

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

/// Sweep families larger than this are rejected as invalid: one request must
/// not pin a worker on an unbounded support list.
constexpr std::size_t kMaxSweepSupports = 257;

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
  const auto plan = command::plan_sweep(request.path, request.big_delta, request.big_r,
                                        request.family, kMaxSweepSupports, &error);
  if (!plan) return {};
  return command::sweep_key(*plan) + (plan->family.cycles ? "cycles" : "gadgets");
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
  const auto plan = command::plan_sweep(lead.path, lead.big_delta, lead.big_r,
                                        lead.family, kMaxSweepSupports, &error);
  if (!plan) {
    invalid_all(error);
    return;
  }
  std::vector<SweepGroupMember> members;
  members.reserve(group.size());
  for (const AdmittedSweep& a : group) {
    const auto spec = parse_sweep_family_spec(a.request.family, lead.big_delta,
                                              lead.big_r, &error);
    if (!spec) {
      invalid_all(error);  // unreachable: the group key already parsed it
      return;
    }
    members.push_back(SweepGroupMember{spec->lo, spec->hi});
  }

  LiftSweepOptions options;
  options.budget = &budget;
  const SweepGroupResult result =
      run_lift_sweep_group(plan->problem, plan->big_delta, plan->big_r,
                           plan->family.cycles, members, options);
  if (!result.lift_materialized) {
    invalid_all("lift too large to materialize");
    return;
  }

  const std::string key_prefix = command::sweep_key(*plan);
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
      sweep_memo_.emplace(key_prefix + group[i].request.family,
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

std::optional<Response> Server::unless_ok(const std::string& id,
                                          const command::Result& result) const {
  switch (result.outcome) {
    case command::Outcome::kInvalid:
      return make_invalid(id, result.error);
    case command::Outcome::kCorrupt:
      // Fail-closed: a torn or tampered artifact yields no verdict at all.
      return make_corrupt(id, result.error);
    case command::Outcome::kExhausted:
      return make_retryable(id, "", options_.retry_after_ms, result.consumed);
    default:
      return std::nullopt;
  }
}

Response Server::run_sequence(const Request& request, SearchBudget& budget) {
  if (request.repeat > kMaxRepeat) {
    return make_invalid(request.id, "repeat exceeds " + std::to_string(kMaxRepeat));
  }
  // Π_0 plus `repeat` copies: the fixed-point chain workload. Requests run
  // serially inside (threads = 1) so cross-request parallelism comes from
  // the worker pool, not from nested pools fighting over cores.
  REOptions options;
  options.threads = 1;
  options.max_nodes = budget.node_limit();
  options.cache = &cache_;
  const command::SequenceResult result = command::run_sequence(
      {request.path}, request.repeat, options, /*emit_certificate=*/false, budget);
  if (auto failed = unless_ok(request.id, result)) return *failed;
  char body[160];
  std::snprintf(body, sizeof(body),
                "verdict=%s steps=%zu cache_hits=%llu cache_misses=%llu",
                result.report.valid ? "valid" : "invalid", result.report.steps.size(),
                static_cast<unsigned long long>(result.stats.cache_hits),
                static_cast<unsigned long long>(result.stats.cache_misses));
  return make_ok(request.id, body, result.consumed);
}

Response Server::run_sweep(const Request& request, SearchBudget& budget) {
  std::string error;
  const auto plan = command::plan_sweep(request.path, request.big_delta, request.big_r,
                                        request.family, kMaxSweepSupports, &error);
  if (!plan) return make_invalid(request.id, error);

  // The cross-request snapshot pool: completed sweeps are keyed by the
  // canonical fingerprint of the problem plus the lift targets and family,
  // so a repeat of an already-decided sweep replays its verdicts without
  // touching a solver. Only budget-clean runs enter the memo.
  const std::string memo_key = command::sweep_key(*plan) + request.family;
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

  // Incremental, without core certification: the service answers verdicts.
  const command::SweepResult result = command::run_sweep(*plan, {}, budget);
  if (auto failed = unless_ok(request.id, result)) return *failed;
  std::vector<Verdict> verdicts;
  for (const LiftSweepStep& step : result.sweep.steps) verdicts.push_back(step.verdict);
  const std::string joined = join_verdicts(verdicts);
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    sweep_memo_.emplace(memo_key, SweepMemoEntry{joined, verdicts.size()});
  }
  return make_ok(request.id,
                 "verdicts=" + joined + " supports=" + std::to_string(verdicts.size()) +
                     " clauses=" + std::to_string(result.sweep.total_clauses) +
                     " memo=miss",
                 result.consumed);
}

Response Server::run_check_cert(const Request& request, SearchBudget& budget) {
  command::CheckCertResult result = command::run_check_cert(request.path);
  result.consumed = budget.consumption();
  if (auto failed = unless_ok(request.id, result)) return *failed;
  return make_ok(request.id,
                 result.outcome == command::Outcome::kYes ? "verdict=valid"
                                                          : "verdict=invalid",
                 result.consumed);
}

Response Server::run_discover(const Request& request, SearchBudget& budget) {
  // request.path is a comma-joined family; the first file doubles as the
  // search root, exactly like the CLI's positional list.
  const std::string& joined = request.path;
  if (joined.front() == ',' || joined.back() == ',' ||
      joined.find(",,") != std::string::npos) {
    return make_invalid(request.id, "empty family member");
  }
  const std::vector<std::string> paths = split(joined, ",");
  if (paths.size() > kMaxDiscoverFamily) {
    return make_invalid(request.id, "family exceeds " +
                                        std::to_string(kMaxDiscoverFamily) +
                                        " problems");
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
  options.cache = &cache_;
  const command::DiscoverResult result = command::run_discover(paths, options, budget);
  if (auto failed = unless_ok(request.id, result)) return *failed;
  const discover::DiscoverStats& stats = result.discovery.stats;
  char body[192];
  if (result.outcome == command::Outcome::kYes) {
    const discover::Discovery& find = result.discovery.found.front();
    std::snprintf(body, sizeof(body),
                  "status=found steps=%zu pumped=%d fp=%016llx "
                  "expansions=%llu cache_hits=%llu cache_misses=%llu",
                  find.chain.size() - 1, find.pumped ? 1 : 0,
                  static_cast<unsigned long long>(find.fingerprints.front()),
                  static_cast<unsigned long long>(stats.expansions),
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.cache_misses));
  } else {
    std::snprintf(body, sizeof(body), "status=none expansions=%llu generated=%llu",
                  static_cast<unsigned long long>(stats.expansions),
                  static_cast<unsigned long long>(stats.candidates_generated));
  }
  return make_ok(request.id, body, result.consumed);
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
  std::string line = "stats";
  append_fields(line, c);
  append_fields(line, cache, "cache_", RECacheCounters::kSummaryFields);
  return line + " in_flight=" + std::to_string(in_flight);
}

}  // namespace slocal::serve
