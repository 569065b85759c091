#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(entries_[i].name) + ": {\"value\": " + number(entries_[i].value) +
           ", \"unit\": " + json_string(entries_[i].unit) + "}";
  }
  return out + "}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }


double peak_rss_mb() {
  double mb = 0.0;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mb;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void RunTally::add(const ItemOutcome& outcome, double latency_limit_ms, bool timed) {
  ++attempted;
  if (!outcome.ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(outcome.id + ": " + outcome.detail);
  }
  if (!timed) return;
  latencies_ms.push_back(outcome.ms);
  item_latencies_ms[outcome.id].push_back(outcome.ms);
  if (outcome.ok && outcome.ms <= latency_limit_ms) ++ok_within_limit;
}

namespace {

const std::pair<double, const char*> kTailLadder[] = {
    {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};

bool supports(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

}  // namespace

bool RunTally::per_item() const { return !supports(latencies_ms.size(), kTailLadder[2].first); }

double RunTally::p50() const {
  if (!per_item()) return median(latencies_ms);
  std::vector<double> item_medians;
  for (const auto& [id, ms] : item_latencies_ms) item_medians.push_back(median(ms));
  return median(item_medians);
}

Tail RunTally::tail() const {
  for (const auto& [q, label] : kTailLadder) {
    if (supports(latencies_ms.size(), q)) return {quantile(latencies_ms, q), label};
  }
  Tail slowest{0.0, "slowest-item-median"};
  for (const auto& [id, ms] : item_latencies_ms) slowest.value = std::max(slowest.value, median(ms));
  return slowest;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now_ms() const { return ms_since(origin_); }

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.item = tracer_->item_;
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->stack_.push_back(index_);
  span.start_ms = tracer_->now_ms();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ms = tracer_->now_ms();
  tracer_->stack_.pop_back();
}

void Tracer::add(const std::string& name, const std::string& item,
                 Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.item = item;
  span.start_ms = ms_between(origin_, start);
  span.end_ms = ms_between(origin_, end);
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
}

double Tracer::self_ms(const std::string& name) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    }
  }
  return total;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

double Tracer::covered_ms() const {
  std::vector<std::pair<double, double>> top;
  for (const Span& s : spans_) {
    if (s.parent < 0) top.emplace_back(s.start_ms, s.end_ms);
  }
  std::sort(top.begin(), top.end());
  double covered = 0.0;
  double reach = -1e300;
  for (const auto& [start, end] : top) {
    const double from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"item\": " << json_string(s.item) << ", \"start_ms\": "
        << number(s.start_ms) << ", \"end_ms\": " << number(s.end_ms)
        << ", \"parent\": " << s.parent << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
