// Cooperative cancellation and resource budgets for the search engines.
//
// Every question the framework asks — RE computation, relaxation-witness
// search, lift solvability — bottoms out in an exponential search. A
// SearchBudget makes those searches interruptible without giving up
// soundness: a search that runs out of budget reports "exhausted", never a
// wrong yes/no. One budget object can be shared by many searches (and many
// threads): the portfolio runner hands the same budget to racing solvers so
// the first definitive answer cancels the losers.
//
// Contract:
//  * charge(n) is the per-search-tree-node check: it counts n nodes against
//    the node limit and (amortized, every 256th call) polls the deadline,
//    the cancel token, and the parent budget. Returns false once the budget
//    is exhausted — permanently (exhaustion is sticky).
//  * charge_conflicts(n) is the same for SAT conflicts.
//  * keep_going() polls without charging — for loops whose unit of work is
//    not a search node (e.g. the CDCL decision loop).
//  * halted() is the cheapest check (one relaxed atomic load); use it in
//    the innermost loops of parallel tasks.
//  * Exhaustion never flips an answer: engines translate a tripped budget
//    into the kExhausted verdict and surface reason() as the diagnostic.
//  * chain_to(parent) makes this budget trip whenever `parent` does,
//    checked at the same amortized poll points. Used to compose an engine's
//    internal node limit with an external cancel/deadline token, without
//    the child's consumption counting against the parent.
//
// Determinism: node/conflict limits are deterministic when charged from a
// single thread (the engines force their serial path under a finite node
// limit for exactly this reason). Deadlines and cancellation are inherently
// racy — they may trip at different points run to run — but can only turn
// a yes/no into exhausted, never into the opposite answer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace slocal {

/// Three-valued answer of a budgeted decision procedure.
enum class Verdict { kYes, kNo, kExhausted };

const char* to_string(Verdict v);

/// Why a budget tripped (kNone while still live).
enum class ExhaustReason : std::uint8_t {
  kNone = 0,
  kCancelled,  // cancel() was called (directly or via a chained parent)
  kDeadline,   // wall-clock deadline passed
  kNodes,      // node limit reached
  kConflicts,  // SAT conflict limit reached
};

const char* to_string(ExhaustReason r);

/// Point-in-time snapshot of what a budget's sharers have consumed — the
/// unit a service bills a request in (src/serve returns these counters with
/// every budget-exhausted response, so a client can see what its request
/// cost before it was shed).
struct BudgetConsumption {
  std::uint64_t nodes = 0;
  std::uint64_t conflicts = 0;
  double elapsed_ms = 0.0;
  ExhaustReason reason = ExhaustReason::kNone;  // kNone while still live
};

class SearchBudget {
 public:
  static constexpr std::uint64_t kUnlimited = 0;

  SearchBudget() : start_(Clock::now()) {}
  /// Convenience: node limit plus optional deadline (0 = none), in ms.
  explicit SearchBudget(std::uint64_t node_limit, double deadline_ms = 0.0)
      : SearchBudget() {
    set_node_limit(node_limit);
    if (deadline_ms > 0.0) set_deadline_ms(deadline_ms);
  }

  SearchBudget(const SearchBudget&) = delete;
  SearchBudget& operator=(const SearchBudget&) = delete;

  // -- Configuration (set before sharing the budget across threads). --
  void set_node_limit(std::uint64_t limit) { node_limit_ = limit; }
  void set_conflict_limit(std::uint64_t limit) { conflict_limit_ = limit; }
  /// Deadline `ms` milliseconds from now (<= 0 clears the deadline).
  void set_deadline_ms(double ms);
  /// Trips this budget whenever `parent` is halted (polled amortized).
  void chain_to(const SearchBudget* parent) { parent_ = parent; }

  // -- Use (thread-safe). --
  /// Requests cooperative cancellation; all sharers stop at their next poll.
  void cancel() { trip(ExhaustReason::kCancelled); }

  /// Counts `nodes` search nodes. False once the budget is exhausted.
  bool charge(std::uint64_t nodes = 1);
  /// Counts `conflicts` SAT conflicts. False once the budget is exhausted.
  bool charge_conflicts(std::uint64_t conflicts = 1);
  /// Polls deadline/cancel/parent without charging anything.
  bool keep_going();

  /// True once the budget tripped (sticky). One relaxed load — safe to call
  /// in the innermost loop.
  bool halted() const { return stopped_.load(std::memory_order_relaxed); }
  bool exhausted() const { return halted(); }
  ExhaustReason reason() const {
    return static_cast<ExhaustReason>(reason_.load(std::memory_order_acquire));
  }

  // -- Diagnostics. --
  std::uint64_t nodes_used() const { return nodes_.load(std::memory_order_relaxed); }
  std::uint64_t conflicts_used() const {
    return conflicts_.load(std::memory_order_relaxed);
  }
  std::uint64_t node_limit() const { return node_limit_; }
  double elapsed_ms() const;
  /// Coherent snapshot of the consumption counters plus the trip reason.
  BudgetConsumption consumption() const;
  /// One-line human-readable state, e.g.
  /// "exhausted (node limit): nodes=512/512 conflicts=0 elapsed=3.1ms".
  std::string describe() const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kPollMask = 0xff;  // poll clock every 256 ticks

  void trip(ExhaustReason why);
  /// Amortized deadline/cancel/parent poll shared by charge/keep_going.
  bool poll();

  Clock::time_point start_;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t node_limit_ = kUnlimited;
  std::uint64_t conflict_limit_ = kUnlimited;
  const SearchBudget* parent_ = nullptr;

  std::atomic<std::uint64_t> nodes_{0};
  std::atomic<std::uint64_t> conflicts_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint8_t> reason_{0};
};

}  // namespace slocal
