// Deterministic fault injection for slocal_serve.
//
// Robustness claims are only testable if the faults are reproducible. A
// ServeFaultPlan names faults by *ordinal* — "tear the 2nd checkpoint
// write", "delay the 1st admitted request by 300 ms", "pre-exhaust the 3rd
// admitted request's budget" — optionally recurring with a fixed period, so
// a soak test replays the exact same fault schedule every run. The plan is
// pure configuration; FaultInjector carries the runtime ordinal counters
// and is consulted at the three hook points inside the server:
//
//   * checkpoint writes   — a triggered fault simulates the legacy
//     truncate-in-place writer dying mid-write: the checkpoint file is
//     deliberately torn (half the payload, no atomic rename) so the next
//     startup must recover from the fallback, never serve the torn bytes.
//   * request execution   — a triggered delay makes the worker sleep
//     without polling its budget, simulating wedged work; the watchdog is
//     expected to cancel it and shed load around it.
//   * request budgets     — a triggered exhaustion trips the request's
//     budget before the engines run, simulating a request that arrives
//     already over quota; the response must be retryable, never a verdict.
//   * accepted connections — a triggered drop closes a freshly accepted
//     socket before a single byte is served (the net transport's hook),
//     simulating a flaky client or a mid-handshake network fault; the
//     dropped client gets no response at all and every other connection
//     must be served exactly as if the drop never happened.
//
// Spec syntax (comma-separated, all clauses optional):
//   fail-checkpoint=<start>[/<period>]
//   delay-request=<start>[/<period>]:<ms>
//   exhaust-request=<start>[/<period>]
//   drop-connection=<start>[/<period>]
// Ordinals are 1-based; a missing /<period> means the fault fires once.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace slocal::serve {

/// One recurring-ordinal trigger: fires at `start`, then every `period`
/// after it (period 0 = fire once). start 0 disables the trigger.
struct FaultTrigger {
  std::uint64_t start = 0;
  std::uint64_t period = 0;

  bool fires_at(std::uint64_t ordinal) const {
    if (start == 0 || ordinal < start) return false;
    if (ordinal == start) return true;
    return period != 0 && (ordinal - start) % period == 0;
  }
};

struct ServeFaultPlan {
  FaultTrigger fail_checkpoint;
  FaultTrigger delay_request;
  std::uint64_t delay_ms = 0;
  FaultTrigger exhaust_request;
  /// By 1-based accept ordinal: close this accepted connection immediately,
  /// before any request is read or any response written.
  FaultTrigger drop_connection;

  bool any() const {
    return fail_checkpoint.start != 0 || delay_request.start != 0 ||
           exhaust_request.start != 0 || drop_connection.start != 0;
  }

  /// Parses the spec syntax above; empty spec = no faults. Returns nullopt
  /// with *error set on malformed input.
  static std::optional<ServeFaultPlan> parse(const std::string& spec,
                                             std::string* error);
};

/// Runtime side of a plan: thread-safe ordinal counters, one per hook.
class FaultInjector {
 public:
  explicit FaultInjector(const ServeFaultPlan& plan = {}) : plan_(plan) {}

  /// Counts one checkpoint write; true = tear this one.
  bool next_checkpoint_fails() {
    return plan_.fail_checkpoint.fires_at(++checkpoints_);
  }
  /// Counts one admitted request; returns the injected delay (0 = none)
  /// and whether its budget should be pre-exhausted.
  struct RequestFaults {
    std::uint64_t delay_ms = 0;
    bool exhaust_budget = false;
  };
  RequestFaults next_request_faults() {
    const std::uint64_t ordinal = ++requests_;
    RequestFaults f;
    if (plan_.delay_request.fires_at(ordinal)) f.delay_ms = plan_.delay_ms;
    f.exhaust_budget = plan_.exhaust_request.fires_at(ordinal);
    return f;
  }

  /// Counts one accepted connection; true = drop it before serving a byte.
  bool next_accept_dropped() {
    return plan_.drop_connection.fires_at(++accepts_);
  }

  std::uint64_t accepts_counted() const { return accepts_.load(); }

 private:
  ServeFaultPlan plan_;
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> accepts_{0};
};

}  // namespace slocal::serve
