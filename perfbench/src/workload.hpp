// The interface main.cpp drives: set up (timed, repeated), run passes over a
// fixed item list (timed), judge the last pass with the oracle (untimed),
// and, after one traced pass, turn the recorded spans and library counters
// into per-layer figures.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the item inputs and anything the oracle needs. Called several
  /// times; each call replaces the previous state.
  virtual void setup() = 0;
  /// Releases what setup() started (threads, sockets) before the next
  /// setup; untimed.
  virtual void teardown() {}
  /// One pass over the item list. With a tracer, records a span around every
  /// public call and accumulates the layer counters of this pass.
  virtual void pass(Tracer* tracer) = 0;
  /// Oracle over the last pass, run outside the timed region.
  virtual std::vector<ItemOutcome> judge() = 0;
  /// Per-layer figures of the traced pass, by metric name.
  virtual void layer_metrics(const Tracer& tracer, std::map<std::string, double>& out) = 0;
  /// Goodput counts ok items no slower than this.
  virtual double latency_limit_ms() const = 0;
  /// key=value facts recorded next to the result (rates, instance sizes).
  virtual std::vector<std::string> notes() const { return {}; }
};

std::unique_ptr<Workload> make_re_chain(const Args& args);
std::unique_ptr<Workload> make_lift_cert(const Args& args);
std::unique_ptr<Workload> make_sim_csr(const Args& args);
std::unique_ptr<Workload> make_serve_mix(const Args& args);

}  // namespace perfbench
