// Shared pieces of the benchmark program: run arguments, the metric table
// printed as the result line, sample statistics, and the span tracer used by
// traced runs.
//
// Layers are measured from outside only: the workloads time their calls into
// each layer's public functions and read the counters the library already
// exposes (REStats, SatStats, LiftSweepResult, DiscoverStats, CsrRunResult,
// ServeCounters, RECacheCounters). Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double ms_since(Clock::time_point from);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Engine and simulator threads: min(4, nproc).
  std::size_t threads = 1;
  /// Directory (inside the checkout) for trace files and serve-mix inputs.
  std::string out_dir;
};

/// `s` as a JSON string literal, quotes included.
std::string json_string(const std::string& s);

/// Ordered name -> (value, unit) table.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

struct Tail {
  double value = 0.0;
  std::string label;  // "p99", "slowest-item-median", ...
};

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// What one item of a pass produced, judged by the workload's oracle outside
/// the timed region.
struct ItemOutcome {
  std::string id;
  double ms = 0.0;
  bool ok = false;
  std::string detail;  // why the oracle rejected it
};

/// Accumulates the end-to-end figures every workload reports.
struct RunTally {
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> latencies_ms;  // per item (batch) or request (serve)
  std::map<std::string, std::vector<double>> item_latencies_ms;  // by item id
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok_within_limit = 0;  // goodput numerator
  double measured_s = 0.0;            // goodput denominator
  std::vector<std::string> failures;  // first few oracle messages

  /// Counts the outcome; only timed passes contribute latency and goodput.
  void add(const ItemOutcome& outcome, double latency_limit_ms, bool timed);
  /// True when the sample is too small for any tail percentile (p90 needs
  /// 100 samples): a batch run over a few items of very different sizes.
  bool per_item() const;
  /// The median latency. Per item, it is the median over items of each
  /// item's median, so it names one item's typical time rather than the
  /// boundary between two items' clusters.
  double p50() const;
  /// The tail the sample supports: the highest of p90 / p99 / p99.9 with at
  /// least 10 samples beyond it. Per item, the slowest item's median.
  Tail tail() const;
};

/// Spans recorded by traced runs, kept in memory and written at the end.
/// Recording happens on one thread; nested scopes form the parent links.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string item;
    double start_ms = 0.0;  // since the tracer's origin
    double end_ms = 0.0;
    int parent = -1;
  };

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled = false);

  void set_item(std::string item) { item_ = std::move(item); }
  /// Records a finished span with explicit bounds (overlapping requests).
  void add(const std::string& name, const std::string& item, Clock::time_point start,
           Clock::time_point end);

  /// Sum over spans named `name` of duration minus the time their direct
  /// children cover.
  double self_ms(const std::string& name) const;
  /// Durations of every span named `name`, in recording order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Wall time covered by the union of top-level spans.
  double covered_ms() const;

  bool write_json(const std::string& path) const;

 private:
  double now_ms() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::string item_;
};

}  // namespace perfbench
