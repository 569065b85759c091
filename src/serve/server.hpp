// The slocal lower-bound service: a long-running, multi-threaded request
// loop over the existing engines, built so overload, wedged work, and
// crashes degrade it instead of killing it.
//
// Architecture (one paragraph per moving part):
//
//  * Dispatch: handle_line() parses one request line and either answers
//    inline (control requests, invalid requests, admission rejects) or
//    admits the request and submits it to the worker pool (the repo's
//    ThreadPool, via the new submit() path). Responses go through a
//    serialized sink callback, one line each, correlated by id — workers
//    finish in any order.
//
//  * Admission control: at most `queue_capacity` requests may be in flight
//    (running + queued). Beyond that the server answers a structured
//    retryable response with retry_after_ms instead of queueing unboundedly
//    — the CLI's exit-3 budget semantics mapped to a 429. While wedged
//    requests are detected (below), the effective capacity shrinks by one
//    per wedge: the server sheds load around the stuck workers and keeps
//    serving with the rest.
//
//  * Budgets and deadlines: every admitted request gets its own
//    SearchBudget — node cap and deadline clamped to the server maxima,
//    chained to the global shutdown token — so one runaway request can
//    exhaust only itself. Budget exhaustion is reported with the request's
//    consumption counters and is retryable by contract: the engines
//    guarantee exhaustion never flips a verdict, so the verbatim request
//    succeeds later under lighter load.
//
//  * Watchdog: a background thread scans the in-flight registry. A request
//    past its deadline gets its budget cancelled (cooperative — the engines
//    poll); one that *stays* in flight past an additional grace period is
//    counted as wedged and triggers load shedding until it finally returns.
//
//  * Shared hot state: one RECache serves every sequence request (hits skip
//    the RE search entirely), and a sweep memo keyed by canonical problem
//    fingerprint + lift targets + family replays completed sweep verdicts
//    without re-solving. Both are fed by completed requests only, so a
//    budget-exhausted attempt can never poison them.
//
//  * Checkpointing: every `checkpoint_every` completed requests (and on
//    demand / at shutdown) the cache is persisted through CheckpointManager
//    — atomic writes, .bak rotation, fault-injectable, recovered on
//    startup.
//
// The Server object is transport-agnostic: examples/slocal_serve.cpp wires
// it to stdin/stdout; tests drive handle_line() directly from many threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/re/re_cache.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/fault_plan.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/budget.hpp"
#include "src/util/thread_pool.hpp"

namespace slocal::serve {

struct ServeOptions {
  /// Worker threads executing requests (>= 1).
  std::size_t workers = 2;
  /// Max requests in flight (running + queued) before admission rejects.
  std::size_t queue_capacity = 8;
  /// Default / maximum per-request budgets. A request may ask for less,
  /// never for more; 0 = unlimited.
  std::uint64_t default_max_nodes = 0;
  std::uint64_t default_timeout_ms = 10'000;
  std::uint64_t max_timeout_ms = 60'000;
  /// Hint returned with every retryable response.
  double retry_after_ms = 50.0;
  /// Cache checkpoint file ("" = checkpointing off) and cadence in
  /// completed requests (0 = only on demand and at shutdown).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  /// Watchdog cadence and the grace period after budget cancellation
  /// before an unresponsive request counts as wedged.
  std::uint64_t watchdog_interval_ms = 10;
  std::uint64_t watchdog_grace_ms = 50;
  ServeFaultPlan faults;
};

/// Monotonic counters, readable at any time (stats request / tests / bench).
struct ServeCounters {
  std::uint64_t received = 0;            // request lines seen
  std::uint64_t admitted = 0;            // entered the worker queue
  std::uint64_t admission_rejects = 0;   // shed at admission (queue full/degraded)
  std::uint64_t completed = 0;           // worker finished (any class)
  std::uint64_t ok = 0;
  std::uint64_t invalid = 0;
  std::uint64_t retryable = 0;           // admission rejects + exhausted budgets
  std::uint64_t corrupt = 0;
  std::uint64_t budget_exhausted = 0;    // retryable specifically from budgets
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t wedged_peak = 0;         // max simultaneous wedged requests
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_failures = 0;
  std::uint64_t sweep_memo_hits = 0;
  /// Batched sweep dispatch (the net layer's SweepBatcher): groups of
  /// size > 1 answered through one shared encoding, requests inside those
  /// groups, the largest group seen, and sweeps dispatched individually
  /// (singleton groups + ungroupable requests).
  std::uint64_t sweep_batch_groups = 0;
  std::uint64_t sweep_batch_requests = 0;
  std::uint64_t sweep_batch_peak = 0;
  std::uint64_t sweep_single_dispatch = 0;
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  using Sink = std::function<void(const std::string&)>;

  /// Responses are delivered through this callback, serialized (never two
  /// concurrent calls). Set before the first handle_line.
  void set_response_sink(Sink sink);

  /// Startup recovery outcome (run in the constructor) and the one-line
  /// banner the binary prints before serving.
  CheckpointManager::Recovery recovery() const { return recovery_; }
  const std::string& recovery_detail() const { return recovery_detail_; }
  std::string ready_line() const;

  /// Handles one request line: answers inline or admits to the pool.
  /// Thread-safe. Returns false when the line asked for shutdown.
  bool handle_line(const std::string& line);

  /// Same, but every response for THIS line (inline answers and the
  /// eventual worker response alike) goes to `sink` instead of the global
  /// one — the multi-connection transport routes each line's responses
  /// back to its originating connection this way. `sink` must be
  /// thread-safe: workers finishing on different threads may call two
  /// different per-line sinks concurrently (each individual sink is still
  /// called at most once per response).
  bool handle_line(const std::string& line, Sink sink);

  /// One sweep request admitted while a sweep interceptor is installed:
  /// everything the deferred dispatch needs to execute it later.
  struct AdmittedSweep {
    Request request;
    std::uint64_t ticket = 0;
    FaultInjector::RequestFaults faults;
    /// Batching key: canonical problem fingerprint + lift targets + family
    /// *kind* — requests sharing it can be answered through one encoding
    /// even when their lo..hi ranges differ. Empty = ungroupable (the
    /// request will fail validation later; dispatch it individually).
    std::string group_key;
  };

  /// When set, admitted sweep requests are handed to `interceptor` instead
  /// of going straight to the worker pool; the interceptor must eventually
  /// pass every one of them to submit_admitted_sweep or submit_sweep_group
  /// (drain() blocks until it does). The call runs under an internal lock,
  /// so clearing the interceptor (set to nullptr) synchronizes with
  /// in-progress deliveries. Non-sweep requests are unaffected.
  void set_sweep_interceptor(std::function<void(AdmittedSweep&&)> interceptor);

  /// Dispatches one intercepted sweep through the normal per-request path.
  void submit_admitted_sweep(AdmittedSweep&& admitted);
  /// Dispatches a whole group (same group_key) through ONE incremental
  /// encoding: the union of the members' ranges is solved once and each
  /// member's verdict list is sliced out of it. Groups of size 1 fall back
  /// to submit_admitted_sweep.
  void submit_sweep_group(std::vector<AdmittedSweep>&& group);

  /// The runtime fault counters, shared with the net transport so
  /// drop-connection ordinals count accepted sockets exactly once.
  FaultInjector& injector() { return injector_; }

  /// Async-signal-safe shutdown trigger: trips the global cancel token all
  /// request budgets chain to. In-flight requests finish (as retryable),
  /// new admissions are rejected.
  void request_shutdown();
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Blocks until every admitted request has completed.
  void drain();
  /// Final checkpoint (no fault injection at shutdown: the flush must be
  /// the one write that always tries honestly).
  bool flush_checkpoint(std::string* error);

  ServeCounters counters() const;
  std::string stats_line() const;
  RECacheCounters cache_counters() const { return cache_.counters(); }

 private:
  struct InFlight {
    std::string id;
    std::shared_ptr<SearchBudget> budget;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point cancelled_at{};
    bool cancelled = false;
    /// Per-line response routing (empty = global sink).
    Sink sink;
  };

  void emit(const Response& response, const Sink& sink);
  void emit_raw(const std::string& line, const Sink& sink);
  void execute(const Request& request, std::uint64_t ticket,
               FaultInjector::RequestFaults faults);
  void execute_sweep_group(std::vector<AdmittedSweep> group);
  Response run_sequence(const Request& request, SearchBudget& budget);
  Response run_sweep(const Request& request, SearchBudget& budget);
  Response run_check_cert(const Request& request, SearchBudget& budget);
  Response run_discover(const Request& request, SearchBudget& budget);
  /// Builds an AdmittedSweep's group key (loads + canonicalizes the problem
  /// file; "" when the request won't survive validation anyway).
  std::string sweep_group_key(const Request& request) const;
  void finish_request(std::uint64_t ticket, const Response& response);
  void watchdog_loop();
  std::size_t wedged_now() const;  // registry_mutex_ must be held

  ServeOptions options_;
  FaultInjector injector_;
  RECache cache_;
  CheckpointManager checkpoints_;
  CheckpointManager::Recovery recovery_ = CheckpointManager::Recovery::kDisabled;
  std::string recovery_detail_;

  /// Global cancel token; every request budget chains to it.
  SearchBudget shutdown_token_;
  std::atomic<bool> shutdown_{false};

  std::mutex sink_mutex_;
  Sink sink_;

  std::mutex interceptor_mutex_;
  std::function<void(AdmittedSweep&&)> interceptor_;

  mutable std::mutex registry_mutex_;
  std::map<std::uint64_t, InFlight> registry_;  // ticket -> in-flight record
  std::uint64_t next_ticket_ = 1;
  std::size_t in_flight_ = 0;
  std::condition_variable drained_cv_;

  mutable std::mutex counter_mutex_;
  ServeCounters counters_;
  std::uint64_t completed_since_checkpoint_ = 0;

  /// Completed sweep verdicts keyed by (canonical problem fingerprint, Δ,
  /// r, family). Only budget-clean results enter, so a memo hit replays a
  /// verdict that was actually decided.
  struct SweepMemoEntry {
    std::string verdicts;  // comma-joined yes/no list
    std::size_t supports = 0;
  };
  std::mutex memo_mutex_;
  std::map<std::string, SweepMemoEntry> sweep_memo_;

  // Workers before watchdog: watchdog_ joins first in the destructor.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
};

}  // namespace slocal::serve
