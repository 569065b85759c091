// serve-mix: the lower-bound service under open-loop load. An in-process
// serve::Server sits behind the src/net TCP listener on loopback with the
// batching sweep dispatcher attached, exactly as `slocal_serve --listen`
// wires it. One load thread drives at most min(4, nproc) connections on a
// seeded Poisson schedule and times every request from when it was due, so a
// stall also charges the requests queued behind it. The client sockets set
// TCP_NODELAY and nothing else, as a latency-minded client would; delayed
// ACKs and the server's socket options stay as they are.
//
// The rate is fixed for a run but not a constant: set-up measures the
// service's saturation throughput on the same mix (every connection keeps one
// request outstanding) and the open loop offers kLoadFraction of it, so a
// faster service is offered, and answers, more requests per second.
//
// The weighted mix: hot-key `sequence` requests, Zipf-skewed over 12 small
// Π_Δ(x,y) files, so the shared RE cache serves reads; `sweep` requests over
// overlapping gadget ranges, half of them in bursts of three that the
// batcher folds into one encoding and half alone, answered from the sweep
// memo once decided; `check-cert` on two certificates emitted during set-up;
// a few `ping`s, which measure framing, the event loop and dispatch with no
// engine work. The serve, net and re_cache layers run nowhere else. There is
// no recorded traffic to fit: the shares, the Zipf exponent, the key set and
// the load fraction are assumptions.
//
// Oracle: every response must be `ok` with the verdict a direct library call
// gave during set-up (sweeps: a scratch-mode run).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <sstream>
#include <thread>

#include "problem_files.hpp"
#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/graph/generators.hpp"
#include "src/lift/sweep.hpp"
#include "src/net/batcher.hpp"
#include "src/net/event_loop.hpp"
#include "src/net/tcp_server.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/sequence.hpp"
#include "src/serve/server.hpp"
#include "src/util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace slocal;

enum class Verb { kSequence, kSweep, kCheckCert, kPing };
enum class Event { kSequence, kSweepBurst, kSweepSingle, kCheckCert, kPing };

const char* span_name(Verb v) {
  switch (v) {
    case Verb::kSequence: return "serve.sequence";
    case Verb::kSweep: return "serve.sweep";
    case Verb::kCheckCert: return "serve.check_cert";
    case Verb::kPing: return "net.ping";
  }
  return "";
}

// Π_Δ(x,y) as {Δ, x, y}, hot keys first: Zipf rank r (0-based) has weight
// 1/(r+1)^kZipfExponent. Small problems: a cache hit still runs the
// relaxation search, 0.5-8 ms of engine work per request.
constexpr std::size_t kSequenceKeys[][3] = {
    {5, 0, 1}, {4, 0, 1}, {5, 2, 2}, {5, 0, 4}, {5, 1, 3}, {3, 0, 1},
    {5, 3, 1}, {5, 1, 4}, {5, 2, 3}, {4, 0, 2}, {5, 0, 2}, {4, 1, 2}};
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kSequenceRepeat = 2;
constexpr std::size_t kSweepRanges[][2] = {{1, 8}, {4, 12}, {1, 16}, {8, 16}, {2, 10}, {6, 14}};
constexpr std::size_t kSweepBurst = 3;
// Event mix: shares of schedule events; half of the sweep events are bursts
// of kSweepBurst requests.
constexpr double kShareSequence = 0.65;
constexpr double kShareSweep = 0.15;
constexpr double kShareCheckCert = 0.1;  // the rest are pings
// Requests per schedule event: each burst adds kSweepBurst - 1.
constexpr double kRequestsPerEvent = 1.0 + kShareSweep / 2 * (kSweepBurst - 1);
// Share of the saturation throughput set-up measures that the open loop
// offers.
constexpr double kLoadFraction = 0.5;
// Events in set-up's closed-loop throughput probe.
constexpr std::size_t kProbeEvents = 300;
constexpr double kLatencyLimitMs = 250.0;
constexpr std::uint64_t kBatchWindowMs = 5;
constexpr double kPassTimeoutMs = 30'000.0;
constexpr int kOne = 1;

struct Request {
  Verb verb = Verb::kPing;
  double due_ms = 0.0;  // offset from the pass start
  std::size_t conn = 0;
  std::string line;      // without id for req lines: "sequence <file> repeat=2"
  std::string expected;  // verdict token of the ok response ("pong" for pings)
};

struct Reply {
  bool done = false;
  double latency_ms = 0.0;
  std::string line;
};

struct Connection {
  int fd = -1;
  net::LineFramer framer{1 << 20};
  std::deque<std::size_t> pings;  // outstanding pings, answered in order
};

/// The line that sends `r` under request id `id`.
std::string wire(const Request& r, const std::string& id) {
  return r.verb == Verb::kPing ? "ping\n" : "req " + id + " " + r.line + "\n";
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads what connection `c` has and hands every complete line to on_line.
/// False once the server has closed it.
template <typename OnLine>
bool drain(Connection& c, OnLine&& on_line) {
  char buf[1 << 16];
  const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
  if (n == 0) return false;
  if (n < 0) return true;
  c.framer.feed(buf, static_cast<std::size_t>(n));
  while (auto line = c.framer.next()) on_line(*line);
  return true;
}

class ServeMix : public Workload {
 public:
  explicit ServeMix(const Args& args)
      : args_(args),
        pass_ms_(args.smoke ? 400.0 : 2000.0),
        probe_events_(args.smoke ? 20 : kProbeEvents),
        connections_(args.threads) {}

  ~ServeMix() override { teardown(); }

  void setup() override {
    dir_ = args_.out_dir + "/serve-mix";
    ::mkdir(dir_.c_str(), 0755);
    write_inputs();
    compute_expected();
    start_service();
    probe_capacity();
  }

  void teardown() override {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
    if (tcp_) {
      tcp_->stop();
      if (loop_.joinable()) loop_.join();
    }
    tcp_.reset();
    batcher_.reset();
    if (server_) {
      server_->request_shutdown();
      server_->drain();
    }
    server_.reset();
  }

  void pass(Tracer* tracer) override {
    if (rate_ == 0.0) {
      // The rate is fixed at the first pass, from the median of the
      // set-ups' probes.
      rate_ = kLoadFraction * median(capacity_rps_) / kRequestsPerEvent;
    }
    ++pass_index_;
    schedule_ = make_schedule(static_cast<std::size_t>(rate_ * pass_ms_ / 1000.0), pass_ms_,
                              pass_index_);
    replies_.assign(schedule_.size(), Reply{});
    if (conns_.size() != connections_) return;  // the service did not start
    lag_max_ms_ = 0.0;
    const serve::ServeCounters before = server_->counters();
    const RECacheCounters cache_before = server_->cache_counters();

    const std::string prefix = std::to_string(pass_index_) + ".";
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto due_at = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(schedule_[i].due_ms));
    };
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) fds[c] = {conns_[c].fd, POLLIN, 0};
    std::size_t next = 0, outstanding = 0;
    const auto on_line = [&](Connection& conn, const std::string& line) {
      std::size_t index = schedule_.size();
      if (line == "pong") {
        if (conn.pings.empty()) return;
        index = conn.pings.front();
        conn.pings.pop_front();
      } else if (line.rfind("resp " + prefix, 0) == 0) {
        index = std::strtoull(line.c_str() + 5 + prefix.size(), nullptr, 10);
      }
      if (index >= schedule_.size() || replies_[index].done) return;
      const auto now = Clock::now();
      replies_[index] = {true, ms_between(due_at(index), now), line};
      if (tracer != nullptr) {
        tracer->add(span_name(schedule_[index].verb), prefix + std::to_string(index),
                    due_at(index), now);
      }
      --outstanding;
    };
    while (next < schedule_.size() || outstanding > 0) {
      auto now = Clock::now();
      while (next < schedule_.size() && due_at(next) <= now) {
        const Request& r = schedule_[next];
        Connection& conn = conns_[r.conn];
        if (r.verb == Verb::kPing) conn.pings.push_back(next);
        lag_max_ms_ = std::max(lag_max_ms_, ms_between(due_at(next), now));
        if (send_all(conn.fd, wire(r, prefix + std::to_string(next)))) ++outstanding;
        ++next;
        now = Clock::now();
      }
      if (next == schedule_.size() && ms_since(start) > pass_ms_ + kPassTimeoutMs) break;
      const double wait_ms =
          next < schedule_.size() ? std::max(0.0, ms_between(now, due_at(next))) : 50.0;
      timespec timeout{static_cast<time_t>(wait_ms / 1000.0),
                       static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& conn = conns_[c];
        if (!drain(conn, [&](const std::string& line) { on_line(conn, line); })) {
          fds[c].fd = -1;  // the server closed it; stop polling
        }
      }
    }
    for (Connection& c : conns_) c.pings.clear();

    if (tracer != nullptr) {
      const serve::ServeCounters after = server_->counters();
      const RECacheCounters cache_after = server_->cache_counters();
      traced_.admission_rejects = after.admission_rejects - before.admission_rejects;
      traced_.sweep_memo_hits = after.sweep_memo_hits - before.sweep_memo_hits;
      traced_.sweep_batch_groups = after.sweep_batch_groups - before.sweep_batch_groups;
      traced_.sweep_batch_requests = after.sweep_batch_requests - before.sweep_batch_requests;
      traced_cache_hits_ = cache_after.hits - cache_before.hits;
      traced_cache_probes_ = traced_cache_hits_ + cache_after.misses - cache_before.misses;
      traced_lag_max_ms_ = lag_max_ms_;
    }
  }

  std::vector<ItemOutcome> judge() override {
    std::vector<ItemOutcome> out;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const Request& r = schedule_[i];
      const Reply& reply = replies_[i];
      ItemOutcome o{span_name(r.verb) + (" #" + std::to_string(i)), reply.latency_ms, false,
                    ""};
      if (!probe_error_.empty()) {
        o.detail = "set-up probe: " + probe_error_;
      } else if (!reply.done) {
        o.detail = "no response";
        o.ms = kPassTimeoutMs;  // a missing response counts as the slowest
      } else if (r.verb == Verb::kPing) {
        o.ok = reply.line == "pong";
      } else {
        // "resp <id> ok <key=value ...>"; the verdict key is the expected
        // token's key.
        std::istringstream words(reply.line);
        std::string resp, id, cls, token;
        words >> resp >> id >> cls;
        const std::string key = r.expected.substr(0, r.expected.find('=') + 1);
        while (words >> token && token.rfind(key, 0) != 0) {
        }
        o.ok = cls == "ok" && token == r.expected;
        if (!o.ok) o.detail = "got '" + reply.line + "', want ok " + r.expected;
      }
      out.push_back(std::move(o));
    }
    return out;
  }

  void layer_metrics(const Tracer& tracer, std::map<std::string, double>& m) override {
    m["serve.sequence_ms_p50"] = median(tracer.durations_ms("serve.sequence"));
    m["serve.sweep_ms_p50"] = median(tracer.durations_ms("serve.sweep"));
    m["serve.check_cert_ms_p50"] = median(tracer.durations_ms("serve.check_cert"));
    m["net.ping_ms_p50"] = median(tracer.durations_ms("net.ping"));
    m["net.generator_lag_ms_max"] = traced_lag_max_ms_;
    m["serve.admission_rejects"] = static_cast<double>(traced_.admission_rejects);
    m["serve.sweep_memo_hits"] = static_cast<double>(traced_.sweep_memo_hits);
    m["serve.sweep_batch_groups"] = static_cast<double>(traced_.sweep_batch_groups);
    m["serve.sweep_batch_requests"] = static_cast<double>(traced_.sweep_batch_requests);
    m["re.cache_hits"] = static_cast<double>(traced_cache_hits_);
    m["re.cache_probes"] = static_cast<double>(traced_cache_probes_);
    m["re.cache_hit_ratio"] =
        traced_cache_probes_ > 0
            ? static_cast<double>(traced_cache_hits_) / static_cast<double>(traced_cache_probes_)
            : 0.0;
  }

  double latency_limit_ms() const override { return kLatencyLimitMs; }

  std::vector<std::string> notes() const override {
    std::string probes;
    for (const double c : capacity_rps_) probes += (probes.empty() ? "" : ",") + std::to_string(c);
    return {"saturation_requests_per_s_each_setup=" + probes,
            "load_fraction=" + std::to_string(kLoadFraction),
            "open_loop_rate_events_per_s=" + std::to_string(rate_),
            "open_loop_rate_requests_per_s=" + std::to_string(rate_ * kRequestsPerEvent),
            "schedule_requests_per_pass=" + std::to_string(schedule_.size()),
            "schedule_ms_per_pass=" + std::to_string(pass_ms_),
            "connections=" + std::to_string(connections_),
            "server_workers=" + std::to_string(args_.threads),
            "batch_window_ms=" + std::to_string(kBatchWindowMs),
            "goodput_latency_limit_ms=" + std::to_string(kLatencyLimitMs),
            "generator_lag_ms_max_last_pass=" + std::to_string(lag_max_ms_)};
  }

 private:
  std::string seq_file(std::size_t k) const { return dir_ + "/seq" + std::to_string(k) + ".txt"; }

  void write_inputs() {
    for (std::size_t k = 0; k < std::size(kSequenceKeys); ++k) {
      const auto& key = kSequenceKeys[k];
      write_problem_file(seq_file(k), make_matching_problem(key[0], key[1], key[2]));
    }
    write_problem_file(dir_ + "/mm3.txt", make_maximal_matching_problem(3));
    cert_files_ = {dir_ + "/sequence.cert", dir_ + "/lift.cert"};
    const auto sequence =
        cert::make_sequence_certificate(matching_lower_bound_sequence(5, 0, 1, 3));
    const auto lift = cert::make_lift_unsat_certificate(make_matching_problem(2, 0, 1), 5, 5,
                                                        make_complete_bipartite(5, 5));
    std::string error;
    if (sequence) cert::save_certificate(*sequence, cert_files_[0], &error);
    if (lift) cert::save_certificate(*lift, cert_files_[1], &error);
  }

  /// The verdict each request must come back with, from direct library
  /// calls on the files the server will read.
  void compute_expected() {
    expected_sequence_.clear();
    for (std::size_t k = 0; k < std::size(kSequenceKeys); ++k) {
      const auto problem = load_problem_file(seq_file(k));
      std::string verdict = "verdict=missing-input";
      if (problem) {
        REOptions options;
        options.threads = 1;
        const bool valid = verify_lower_bound_sequence(
                               std::vector<Problem>(kSequenceRepeat + 1, *problem), options)
                               .valid;
        verdict = valid ? "verdict=valid" : "verdict=invalid";
      }
      expected_sequence_.push_back(verdict);
    }
    expected_sweep_.clear();
    std::size_t hi = 0;
    for (const auto& range : kSweepRanges) hi = std::max(hi, range[1]);
    std::vector<Verdict> scratch;
    if (const auto mm3 = load_problem_file(dir_ + "/mm3.txt")) {
      LiftSweepOptions options;
      options.incremental = false;
      for (const LiftSweepStep& step :
           run_lift_sweep(*mm3, 3, 3, make_gadget_supports(3, 3, 1, hi), options).steps) {
        scratch.push_back(step.verdict);
      }
    }
    for (const auto& range : kSweepRanges) {
      std::string verdicts = "verdicts=";
      for (std::size_t size = range[0]; size <= range[1]; ++size) {
        if (size > range[0]) verdicts += ',';
        verdicts += size <= scratch.size() ? to_string(scratch[size - 1]) : "missing";
      }
      expected_sweep_.push_back(verdicts);
    }
    expected_cert_.clear();
    for (const std::string& path : cert_files_) {
      cert::Certificate certificate;
      std::string error;
      const bool valid = cert::load_certificate(path, &certificate, &error) &&
                         cert::check_certificate(certificate).status == cert::CertStatus::kValid;
      expected_cert_.push_back(valid ? "verdict=valid" : "verdict=invalid");
    }
  }

  /// `events` schedule events spread over `span_ms`, in the order and at
  /// the times stream `stream` of the seed gives them.
  std::vector<Request> make_schedule(std::size_t events, double span_ms,
                                     std::uint64_t stream) const {
    // Every schedule of a given length sends the same multiset of requests:
    // exact verb shares, sequence keys stratified over the Zipf
    // distribution, sweep ranges and certificates used equally often. The
    // seed and the stream order them, time them and place the sweep ranges
    // into bursts, so a run averages over many arrival patterns and seeds
    // stay comparable.
    Rng rng(args_.seed * 0x9e3779b97f4a7c15ull + stream);
    const auto shuffle = [&](auto& v) {
      for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
    };
    const auto count = [&](double share) {
      return static_cast<std::size_t>(share * static_cast<double>(events) + 0.5);
    };
    std::vector<Event> kinds;
    kinds.insert(kinds.end(), count(kShareSequence), Event::kSequence);
    kinds.insert(kinds.end(), count(kShareSweep / 2), Event::kSweepBurst);
    kinds.insert(kinds.end(), count(kShareSweep / 2), Event::kSweepSingle);
    kinds.insert(kinds.end(), count(kShareCheckCert), Event::kCheckCert);
    kinds.resize(events, Event::kPing);
    shuffle(kinds);

    std::vector<double> zipf;
    double total = 0.0;
    for (std::size_t k = 0; k < std::size(kSequenceKeys); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      zipf.push_back(total);
    }
    std::vector<std::size_t> keys, ranges, certs;
    const std::size_t sequences = count(kShareSequence);
    for (std::size_t j = 0; j < sequences; ++j) {
      const double z = (static_cast<double>(j) + 0.5) / static_cast<double>(sequences) * total;
      std::size_t k = 0;
      while (k + 1 < zipf.size() && zipf[k] < z) ++k;
      keys.push_back(k);
    }
    for (std::size_t j = 0; j < count(kShareSweep / 2) * (kSweepBurst + 1); ++j) {
      ranges.push_back(j % std::size(kSweepRanges));
    }
    for (std::size_t j = 0; j < count(kShareCheckCert); ++j) certs.push_back(j % cert_files_.size());
    shuffle(keys);
    shuffle(ranges);
    shuffle(certs);

    // Poisson arrivals conditioned on the count: exponential gaps, rescaled
    // so the events span span_ms.
    std::vector<double> due(events + 1);
    double t = 0.0;
    for (double& d : due) {
      const double u = static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
      d = (t += -std::log(1.0 - u));
    }
    for (double& d : due) d *= span_ms / due.back();

    std::vector<Request> schedule;
    std::size_t conn = 0;
    const auto push = [&](Verb verb, double at, std::string line, std::string expected) {
      schedule.push_back({verb, at, conn, std::move(line), std::move(expected)});
      conn = (conn + 1) % connections_;
    };
    std::size_t next_key = 0, next_range = 0, next_cert = 0;
    for (std::size_t e = 0; e < events; ++e) {
      switch (kinds[e]) {
        case Event::kSequence: {
          const std::size_t k = keys[next_key++];
          push(Verb::kSequence, due[e],
               "sequence " + seq_file(k) + " repeat=" + std::to_string(kSequenceRepeat),
               expected_sequence_[k]);
          break;
        }
        case Event::kSweepBurst:
        case Event::kSweepSingle:
          for (std::size_t b = 0; b < (kinds[e] == Event::kSweepBurst ? kSweepBurst : 1); ++b) {
            const std::size_t r = ranges[next_range++];
            push(Verb::kSweep, due[e],
                 "sweep " + dir_ + "/mm3.txt 3 3 gadgets:" +
                     std::to_string(kSweepRanges[r][0]) + ".." +
                     std::to_string(kSweepRanges[r][1]),
                 expected_sweep_[r]);
          }
          break;
        case Event::kCheckCert: {
          const std::size_t c = certs[next_cert++];
          push(Verb::kCheckCert, due[e], "check-cert " + cert_files_[c], expected_cert_[c]);
          break;
        }
        case Event::kPing:
          push(Verb::kPing, due[e], "ping", "pong");
          break;
      }
    }
    return schedule;
  }

  void start_service() {
    serve::ServeOptions options;
    options.workers = args_.threads;
    options.queue_capacity = 256;
    server_ = std::make_unique<serve::Server>(options);
    net::SweepBatcherOptions batch;
    batch.window_ms = kBatchWindowMs;
    batcher_ = std::make_unique<net::SweepBatcher>(*server_, batch);
    batcher_->attach();
    net::TcpServerOptions tcp_options;
    tcp_options.idle_timeout_ms = 0;
    tcp_ = std::make_unique<net::TcpServer>(*server_, tcp_options);
    std::string error;
    if (!tcp_->start(&error)) {
      std::fprintf(stderr, "serve-mix: listener failed: %s\n", error.c_str());
      tcp_.reset();
      return;
    }
    loop_ = std::thread([this] { tcp_->run(); });
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(tcp_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (std::size_t c = 0; c < connections_; ++c) {
      Connection conn;
      conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &kOne, sizeof(kOne));
      if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        std::fprintf(stderr, "serve-mix: connect failed: %s\n", std::strerror(errno));
        ::close(conn.fd);
        return;
      }
      conns_.push_back(std::move(conn));
    }
  }

  /// Saturation throughput on the mix, into capacity_rps_: a fresh service
  /// answers probe_events_ events' requests while every connection keeps
  /// exactly one outstanding (closed loop). Any answer that is not `ok`
  /// lands in probe_error_.
  void probe_capacity() {
    probe_error_.clear();
    if (conns_.size() != connections_) {
      probe_error_ = "the service did not start";
      return;
    }
    const std::vector<Request> probe = make_schedule(probe_events_, 0.0, ~std::uint64_t{0});
    std::vector<std::deque<std::size_t>> queues(connections_);
    for (std::size_t i = 0; i < probe.size(); ++i) queues[probe[i].conn].push_back(i);
    std::vector<pollfd> fds(conns_.size());
    std::size_t outstanding = 0, answered = 0;
    const auto send_next = [&](std::size_t c) {
      if (queues[c].empty()) return;
      const std::size_t i = queues[c].front();
      queues[c].pop_front();
      if (send_all(conns_[c].fd, wire(probe[i], "probe." + std::to_string(i)))) ++outstanding;
    };
    const auto start = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c] = {conns_[c].fd, POLLIN, 0};
      send_next(c);
    }
    while (outstanding > 0 && ms_since(start) < kPassTimeoutMs) {
      if (::poll(fds.data(), fds.size(), 50) <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool open = drain(conns_[c], [&](const std::string& line) {
          std::istringstream words(line);
          std::string resp, id, cls;
          words >> resp >> id >> cls;
          if (line != "pong" && cls != "ok" && probe_error_.empty()) {
            probe_error_ = "got '" + line + "'";
          }
          --outstanding;
          ++answered;
          send_next(c);
        });
        if (!open) fds[c].fd = -1;
      }
    }
    if (outstanding > 0 && probe_error_.empty()) probe_error_ = "requests went unanswered";
    capacity_rps_.push_back(static_cast<double>(answered) / (ms_since(start) / 1000.0));
  }

  Args args_;
  double pass_ms_;
  std::size_t probe_events_;
  std::size_t connections_;
  double rate_ = 0.0;  // schedule events per second, fixed at the first pass
  std::vector<double> capacity_rps_;  // one probe per set-up
  std::string probe_error_;
  std::string dir_;
  std::vector<std::string> cert_files_;
  std::vector<std::string> expected_sequence_, expected_sweep_, expected_cert_;
  std::vector<Request> schedule_;
  std::vector<Reply> replies_;
  std::uint64_t pass_index_ = 0;
  double lag_max_ms_ = 0.0;

  // Declared in teardown order's reverse: the server outlives the batcher,
  // which outlives the listener.
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<net::SweepBatcher> batcher_;
  std::unique_ptr<net::TcpServer> tcp_;
  std::thread loop_;
  std::vector<Connection> conns_;

  // Counters of the traced pass.
  serve::ServeCounters traced_;
  std::uint64_t traced_cache_hits_ = 0;
  std::uint64_t traced_cache_probes_ = 0;
  double traced_lag_max_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const Args& args) {
  return std::make_unique<ServeMix>(args);
}

}  // namespace perfbench
