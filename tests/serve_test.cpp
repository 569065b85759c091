// The robustness contract of the lower-bound service (src/serve):
//
//  * protocol: every line parses or bounces with a correlatable id; the
//    four response classes are terminal and machine-parseable;
//  * admission control: saturation sheds load with structured retryable
//    responses, and the rejected request succeeds verbatim on retry once
//    load drains;
//  * budgets: exhausted responses carry the request's consumption counters;
//    injected exhaustion and watchdog cancels never flip a verdict;
//  * checkpointing: a torn checkpoint is never served — recovery falls back
//    to the previous good generation; every persisted format (RE cache,
//    discover checkpoint, certificate) survives SIGKILL at arbitrary save
//    offsets (atomic rename, pinned here);
//  * the binary: ready banner, clean EOF shutdown, SIGTERM flushes the
//    checkpoint and exits 0; slocal_tool exits 3 on SIGINT with the cache
//    intact.
//
// The soak test drives a multi-threaded server through a deterministic
// fault plan (periodic checkpoint tears, delayed and pre-exhausted
// requests) and asserts no verdict ever flips and the final checkpoint
// always loads.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cert/emit.hpp"
#include "src/discover/checkpoint.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/parser.hpp"
#include "src/graph/generators.hpp"
#include "src/net/batcher.hpp"
#include "src/problems/matching_family.hpp"
#include "src/re/re_cache.hpp"
#include "src/serve/checkpoint.hpp"
#include "src/serve/fault_plan.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/strings.hpp"

namespace slocal::serve {
namespace {

std::string problem(const char* name) {
  return std::string(SLOCAL_PROBLEM_DIR "/") + name;
}

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("slocal_serve_test_") + tag + "_" +
           std::to_string(::getpid())))
      .string();
}

void remove_checkpoint_files(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".bak", ec);
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesSequenceWithOptions) {
  std::string error, error_id;
  const auto req = parse_request_line(
      "req a1 sequence /tmp/p.txt repeat=3 max-nodes=100 timeout-ms=2000",
      &error, &error_id);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, Request::Kind::kSequence);
  EXPECT_EQ(req->id, "a1");
  EXPECT_EQ(req->path, "/tmp/p.txt");
  EXPECT_EQ(req->repeat, 3u);
  EXPECT_EQ(req->max_nodes, 100u);
  EXPECT_EQ(req->timeout_ms, 2000u);
}

TEST(ServeProtocol, ParsesSweepAndControls) {
  std::string error, error_id;
  const auto req = parse_request_line("req s sweep /tmp/p.txt 2 2 cycles:2..4",
                                      &error, &error_id);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, Request::Kind::kSweep);
  EXPECT_EQ(req->big_delta, 2u);
  EXPECT_EQ(req->big_r, 2u);
  EXPECT_EQ(req->family, "cycles:2..4");
  for (const char* control : {"ping", "stats", "checkpoint", "shutdown"}) {
    EXPECT_TRUE(parse_request_line(control, &error, &error_id).has_value())
        << control;
  }
}

TEST(ServeProtocol, ParsesDiscoverWithOptions) {
  std::string error, error_id;
  const auto req = parse_request_line(
      "req d1 discover /tmp/a.txt,/tmp/b.txt target=2 beam=8 "
      "max-expansions=32 max-nodes=500 timeout-ms=1000",
      &error, &error_id);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->kind, Request::Kind::kDiscover);
  EXPECT_EQ(req->id, "d1");
  EXPECT_EQ(req->path, "/tmp/a.txt,/tmp/b.txt");
  EXPECT_EQ(req->target, 2u);
  EXPECT_EQ(req->beam, 8u);
  EXPECT_EQ(req->max_expansions, 32u);
  EXPECT_EQ(req->max_nodes, 500u);
  EXPECT_EQ(req->timeout_ms, 1000u);
  // Defaults apply when no options are given.
  const auto bare =
      parse_request_line("req d2 discover /tmp/a.txt", &error, &error_id);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_EQ(bare->target, 1u);
  EXPECT_EQ(bare->beam, 4u);
}

TEST(ServeProtocol, DiscoverOptionsAreKindGatedAndBounded) {
  std::string error, error_id;
  // target= / beam= / max-expansions= belong to discover only.
  EXPECT_FALSE(parse_request_line("req x sequence /tmp/p.txt target=2", &error,
                                  &error_id)
                   .has_value());
  EXPECT_FALSE(
      parse_request_line("req x sweep /tmp/p.txt 2 2 cycles:2..3 beam=8",
                         &error, &error_id)
          .has_value());
  // Zero is out of range for every discover knob.
  for (const char* bad : {"target=0", "beam=0", "max-expansions=0"}) {
    EXPECT_FALSE(parse_request_line(
                     std::string("req x discover /tmp/p.txt ") + bad, &error,
                     &error_id)
                     .has_value())
        << bad;
  }
}

TEST(ServeProtocol, RecoversIdFromOversizedLine) {
  std::string error, error_id;
  const std::string line =
      "req big-7 sequence " + std::string(2 * kMaxRequestLine, 'x');
  EXPECT_FALSE(parse_request_line(line, &error, &error_id).has_value());
  EXPECT_EQ(error_id, "big-7");
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  std::string error, error_id;
  EXPECT_FALSE(parse_request_line("nonsense", &error, &error_id).has_value());
  EXPECT_FALSE(parse_request_line("req x", &error, &error_id).has_value());
  EXPECT_FALSE(
      parse_request_line("req x sequence", &error, &error_id).has_value());
  EXPECT_FALSE(
      parse_request_line("req x sequence f repeat=0", &error, &error_id)
          .has_value());
  EXPECT_FALSE(
      parse_request_line("req x sequence f repeat=1x", &error, &error_id)
          .has_value());
  EXPECT_FALSE(
      parse_request_line("req x sweep f 0 2 cycles:2..3", &error, &error_id)
          .has_value());
  const std::string long_id(kMaxRequestId + 1, 'i');
  EXPECT_FALSE(parse_request_line("req " + long_id + " sequence f", &error,
                                  &error_id)
                   .has_value());
  EXPECT_TRUE(error_id.empty());  // an over-long id is not echoed back
}

TEST(ServeProtocol, FormatsResponseClasses) {
  BudgetConsumption used;
  used.nodes = 42;
  used.conflicts = 7;
  used.elapsed_ms = 1.25;
  used.reason = ExhaustReason::kNodes;
  const std::string retry = format_response(make_retryable("r1", "", 50.0, used));
  EXPECT_NE(retry.find("resp r1 retryable reason=nodes retry_after_ms=50"),
            std::string::npos)
      << retry;
  EXPECT_NE(retry.find("nodes=42 conflicts=7"), std::string::npos) << retry;

  BudgetConsumption none;
  const std::string admission =
      format_response(make_retryable("r2", "admission", 25.0, none));
  EXPECT_NE(admission.find("reason=admission retry_after_ms=25"),
            std::string::npos)
      << admission;

  EXPECT_EQ(format_response(make_invalid("", "bad")), "resp - invalid bad");
  const std::string ok = format_response(make_ok("k", "verdict=valid", none));
  EXPECT_NE(ok.find("resp k ok"), std::string::npos) << ok;
  EXPECT_NE(ok.find("verdict=valid"), std::string::npos) << ok;
}

// -------------------------------------------------------------- fault plan

TEST(ServeFaultPlanTest, ParsesAndFires) {
  std::string error;
  const auto plan = ServeFaultPlan::parse(
      "fail-checkpoint=2,delay-request=3/5:40,exhaust-request=1", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_TRUE(plan->any());
  EXPECT_TRUE(plan->fail_checkpoint.fires_at(2));
  EXPECT_FALSE(plan->fail_checkpoint.fires_at(1));
  EXPECT_FALSE(plan->fail_checkpoint.fires_at(4));  // no period: fires once
  EXPECT_EQ(plan->delay_ms, 40u);
  EXPECT_TRUE(plan->delay_request.fires_at(3));
  EXPECT_TRUE(plan->delay_request.fires_at(8));
  EXPECT_TRUE(plan->delay_request.fires_at(13));
  EXPECT_FALSE(plan->delay_request.fires_at(4));
  EXPECT_TRUE(plan->exhaust_request.fires_at(1));

  EXPECT_FALSE(ServeFaultPlan::parse("fail-checkpoint=0", &error).has_value());
  EXPECT_FALSE(ServeFaultPlan::parse("delay-request=2", &error).has_value());
  EXPECT_FALSE(ServeFaultPlan::parse("bogus=1", &error).has_value());
  EXPECT_FALSE(ServeFaultPlan::parse("fail-checkpoint=1/0", &error).has_value());
  const auto empty = ServeFaultPlan::parse("", &error);
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->any());
}

TEST(ServeFaultPlanTest, InjectorCountsOrdinals) {
  std::string error;
  const auto plan = ServeFaultPlan::parse("exhaust-request=2/3", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  FaultInjector injector(*plan);
  EXPECT_FALSE(injector.next_request_faults().exhaust_budget);  // #1
  EXPECT_TRUE(injector.next_request_faults().exhaust_budget);   // #2
  EXPECT_FALSE(injector.next_request_faults().exhaust_budget);  // #3
  EXPECT_FALSE(injector.next_request_faults().exhaust_budget);  // #4
  EXPECT_TRUE(injector.next_request_faults().exhaust_budget);   // #5
}

// --------------------------------------------------------------- in-process

/// Thread-safe response collector for in-process servers.
class Collector {
 public:
  void attach(Server& server) {
    server.set_response_sink(
        [this](const std::string& line) { push(line); });
  }

  std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

  /// All "resp <id> ..." lines for one id, in arrival order.
  std::vector<std::string> responses(const std::string& id) const {
    const std::string prefix = "resp " + id + " ";
    std::vector<std::string> out;
    for (const std::string& line : lines()) {
      if (line.rfind(prefix, 0) == 0) out.push_back(line);
    }
    return out;
  }

  std::string only_response(const std::string& id) const {
    const auto all = responses(id);
    EXPECT_EQ(all.size(), 1u) << "id " << id;
    return all.empty() ? std::string() : all.front();
  }

 private:
  void push(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(ServeServer, AnswersControlAndVerdictRequests) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  Collector sink;
  sink.attach(server);

  EXPECT_TRUE(server.handle_line("ping"));
  EXPECT_TRUE(server.handle_line("# comment lines are ignored"));
  EXPECT_TRUE(server.handle_line(""));
  EXPECT_TRUE(server.handle_line("req q1 sequence " + problem("two_coloring.txt") +
                                 " repeat=3"));
  EXPECT_TRUE(server.handle_line("req q2 sequence /no/such/file repeat=1"));
  EXPECT_TRUE(server.handle_line("req q3 check-cert /no/such/cert"));
  server.drain();
  EXPECT_TRUE(server.handle_line("stats"));

  const auto lines = sink.lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front(), "pong");
  const std::string ok = sink.only_response("q1");
  EXPECT_NE(ok.find(" ok "), std::string::npos) << ok;
  EXPECT_NE(ok.find("verdict=valid"), std::string::npos) << ok;
  EXPECT_NE(ok.find("steps=3"), std::string::npos) << ok;
  const std::string invalid = sink.only_response("q2");
  EXPECT_NE(invalid.find(" invalid "), std::string::npos) << invalid;
  const std::string corrupt = sink.only_response("q3");
  EXPECT_NE(corrupt.find(" corrupt "), std::string::npos) << corrupt;

  bool saw_stats = false;
  for (const std::string& line : sink.lines()) {
    if (line.rfind("stats ", 0) == 0) {
      saw_stats = true;
      EXPECT_NE(line.find("admitted=3"), std::string::npos) << line;
      EXPECT_NE(line.find("ok=1"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_stats);
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.ok, 1u);
  EXPECT_EQ(counters.invalid, 1u);
  EXPECT_EQ(counters.corrupt, 1u);
  server.request_shutdown();
}

TEST(ServeServer, StatsReplyKeepsItsKeysInOrder) {
  // Operators parse this line: its keys and their order are a contract.
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  const std::string line = server.stats_line();
  std::vector<std::string> keys;
  for (const std::string& token : split(line.substr(line.find(' ') + 1), " ")) {
    keys.push_back(token.substr(0, token.find('=')));
  }
  EXPECT_EQ(line.rfind("stats ", 0), 0u) << line;
  const std::vector<std::string> expected = {
      "received",           "admitted",
      "admission_rejects",  "completed",
      "ok",                 "invalid",
      "retryable",          "corrupt",
      "budget_exhausted",   "watchdog_cancels",
      "wedged_peak",        "checkpoints_written",
      "checkpoint_failures", "sweep_memo_hits",
      "sweep_batch_groups", "sweep_batch_requests",
      "sweep_batch_peak",   "sweep_single_dispatch",
      "cache_entries",      "cache_hits",
      "cache_misses",       "in_flight"};
  EXPECT_EQ(keys, expected) << line;
  server.request_shutdown();
}

TEST(ServeServer, DiscoverRequestsAnswerEveryResponseClass) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  Collector sink;
  sink.attach(server);

  // Found: the Δ'=3 matching chain from the comma-joined family files.
  EXPECT_TRUE(server.handle_line(
      "req d1 discover " + problem("matching_3_0_1.txt") + "," +
      problem("matching_3_1_1.txt") + " target=1"));
  // None: the dead-end singleton family has no length-2 chain.
  EXPECT_TRUE(server.handle_line("req d2 discover " +
                                 problem("matching_3_1_1.txt") + " target=2"));
  // Retryable: a 10-node budget trips inside the first engine call.
  EXPECT_TRUE(server.handle_line("req d3 discover " +
                                 problem("matching_3_0_1.txt") + "," +
                                 problem("matching_3_1_1.txt") +
                                 " target=1 max-nodes=10"));
  // Invalid: missing file.
  EXPECT_TRUE(server.handle_line("req d4 discover /no/such/family.txt"));
  server.drain();

  const std::string found = sink.only_response("d1");
  EXPECT_NE(found.find(" ok "), std::string::npos) << found;
  EXPECT_NE(found.find("status=found"), std::string::npos) << found;
  EXPECT_NE(found.find("steps=1"), std::string::npos) << found;
  const std::string none = sink.only_response("d2");
  EXPECT_NE(none.find(" ok "), std::string::npos) << none;
  EXPECT_NE(none.find("status=none"), std::string::npos) << none;
  const std::string retry = sink.only_response("d3");
  EXPECT_NE(retry.find(" retryable reason=nodes"), std::string::npos) << retry;
  const std::string invalid = sink.only_response("d4");
  EXPECT_NE(invalid.find(" invalid "), std::string::npos) << invalid;

  // The retryable attempt succeeds verbatim-without-the-cap later — budget
  // exhaustion never flipped anything.
  EXPECT_TRUE(server.handle_line(
      "req d5 discover " + problem("matching_3_0_1.txt") + "," +
      problem("matching_3_1_1.txt") + " target=1"));
  server.drain();
  const std::string after = sink.only_response("d5");
  EXPECT_NE(after.find("status=found"), std::string::npos) << after;
  server.request_shutdown();
}

TEST(ServeServer, AdmissionRejectIsRetryableVerbatim) {
  // One worker, one slot; the first request is delayed by the fault plan,
  // so the second is shed at admission — then succeeds verbatim on retry.
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 25.0;
  std::string error;
  const auto plan = ServeFaultPlan::parse("delay-request=1:300", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  options.faults = *plan;
  Server server(options);
  Collector sink;
  sink.attach(server);

  const std::string request =
      "req want sequence " + problem("two_coloring.txt") + " repeat=2";
  EXPECT_TRUE(server.handle_line("req slow sequence " +
                                 problem("two_coloring.txt") + " repeat=2"));
  EXPECT_TRUE(server.handle_line(request));

  const std::string rejected = sink.only_response("want");
  EXPECT_NE(rejected.find(" retryable reason=admission retry_after_ms=25"),
            std::string::npos)
      << rejected;

  server.drain();  // load drains; the verbatim retry must now succeed
  EXPECT_TRUE(server.handle_line(request));
  server.drain();
  const auto responses = sink.responses("want");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[1].find(" ok "), std::string::npos) << responses[1];
  EXPECT_NE(responses[1].find("verdict=valid"), std::string::npos)
      << responses[1];
  EXPECT_GE(server.counters().admission_rejects, 1u);
}

TEST(ServeServer, ExhaustedBudgetCarriesConsumptionCounters) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  Collector sink;
  sink.attach(server);

  EXPECT_TRUE(server.handle_line("req tiny sequence " +
                                 problem("two_coloring.txt") +
                                 " repeat=3 max-nodes=1"));
  server.drain();
  const std::string resp = sink.only_response("tiny");
  EXPECT_NE(resp.find(" retryable reason=nodes"), std::string::npos) << resp;
  EXPECT_NE(resp.find("retry_after_ms="), std::string::npos) << resp;
  EXPECT_NE(resp.find("elapsed_ms="), std::string::npos) << resp;
  // The per-request consumption counters: at least one node was spent
  // before the cap shed the request.
  std::uint64_t nodes = 0;
  const std::size_t at = resp.find("nodes=");
  ASSERT_NE(at, std::string::npos) << resp;
  nodes = std::strtoull(resp.c_str() + at + 6, nullptr, 10);
  EXPECT_GE(nodes, 1u) << resp;
  EXPECT_EQ(server.counters().budget_exhausted, 1u);

  // The verbatim request without the starvation budget decides cleanly:
  // exhaustion postponed the verdict, it never flipped it.
  EXPECT_TRUE(server.handle_line("req full sequence " +
                                 problem("two_coloring.txt") + " repeat=3"));
  server.drain();
  const std::string ok = sink.only_response("full");
  EXPECT_NE(ok.find("verdict=valid"), std::string::npos) << ok;
}

TEST(ServeServer, InjectedExhaustionNeverFlipsVerdict) {
  ServeOptions options;
  options.workers = 1;
  std::string error;
  const auto plan = ServeFaultPlan::parse("exhaust-request=1", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  options.faults = *plan;
  Server server(options);
  Collector sink;
  sink.attach(server);

  const std::string request =
      "req x sequence " + problem("two_coloring.txt") + " repeat=2";
  EXPECT_TRUE(server.handle_line(request));
  server.drain();
  const std::string shed = sink.only_response("x");
  EXPECT_NE(shed.find(" retryable reason=cancelled"), std::string::npos)
      << shed;
  EXPECT_TRUE(server.handle_line(request));  // fault fired once; retry runs
  server.drain();
  const auto responses = sink.responses("x");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[1].find("verdict=valid"), std::string::npos)
      << responses[1];
}

TEST(ServeServer, WatchdogCancelsOverdueRequestAndKeepsServing) {
  ServeOptions options;
  options.workers = 2;
  options.default_timeout_ms = 40;
  options.watchdog_interval_ms = 5;
  options.watchdog_grace_ms = 10;
  std::string error;
  // The first request wedges for 400ms without polling its budget — the
  // deadline passes while it sleeps, the watchdog cancels it, and the
  // budget check after the sleep sheds it as retryable.
  const auto plan = ServeFaultPlan::parse("delay-request=1:400", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  options.faults = *plan;
  Server server(options);
  Collector sink;
  sink.attach(server);

  EXPECT_TRUE(server.handle_line("req stuck sequence " +
                                 problem("two_coloring.txt") + " repeat=2"));
  EXPECT_TRUE(server.handle_line("req live sequence " +
                                 problem("two_coloring.txt") +
                                 " repeat=2 timeout-ms=30000"));
  server.drain();
  const std::string stuck = sink.only_response("stuck");
  EXPECT_NE(stuck.find(" retryable "), std::string::npos) << stuck;
  const std::string live = sink.only_response("live");
  EXPECT_NE(live.find("verdict=valid"), std::string::npos) << live;
  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.watchdog_cancels, 1u);
  EXPECT_GE(counters.wedged_peak, 1u);
}

TEST(ServeServer, SweepMemoReplaysCompletedVerdicts) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  Collector sink;
  sink.attach(server);

  const std::string request =
      "req s1 sweep " + problem("two_coloring.txt") + " 2 2 cycles:2..4";
  EXPECT_TRUE(server.handle_line(request));
  server.drain();
  const std::string first = sink.only_response("s1");
  EXPECT_NE(first.find(" ok "), std::string::npos) << first;
  EXPECT_NE(first.find("memo=miss"), std::string::npos) << first;
  const std::size_t v_at = first.find("verdicts=");
  ASSERT_NE(v_at, std::string::npos) << first;
  const std::string verdicts =
      first.substr(v_at, first.find(' ', v_at) - v_at);

  EXPECT_TRUE(server.handle_line("req s2 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:2..4"));
  server.drain();
  const std::string second = sink.only_response("s2");
  EXPECT_NE(second.find("memo=hit"), std::string::npos) << second;
  EXPECT_NE(second.find(verdicts), std::string::npos)
      << second << " vs " << verdicts;
  EXPECT_EQ(server.counters().sweep_memo_hits, 1u);

  EXPECT_TRUE(server.handle_line("req s3 sweep " + problem("two_coloring.txt") +
                                 " 1 2 cycles:2..4"));
  server.drain();
  EXPECT_NE(sink.only_response("s3").find(" invalid "), std::string::npos);
}

TEST(ServeServer, OversizedSweepFamilyIsInvalidBatchedOrNot) {
  // The 257-support cap is the service's own rule (the shared family grammar
  // has none): it must hold on the per-request path and when the batching
  // dispatcher groups sweeps by family kind.
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  Collector sink;
  sink.attach(server);
  const std::string mm3 = problem("maximal_matching_3.txt");
  EXPECT_TRUE(server.handle_line("req u1 sweep " + mm3 + " 3 3 gadgets:1..258"));
  EXPECT_TRUE(server.handle_line("req u2 sweep " + problem("two_coloring.txt") +
                                 " 2 2 cycles:2..259"));
  server.drain();
  {
    net::SweepBatcherOptions batch_options;
    batch_options.window_ms = 60'000;  // flush() decides, not the clock
    net::SweepBatcher batcher(server, batch_options);
    batcher.attach();
    EXPECT_TRUE(server.handle_line("req b1 sweep " + mm3 + " 3 3 gadgets:1..258"));
    EXPECT_TRUE(server.handle_line("req b2 sweep " + mm3 + " 3 3 gadgets:1..2"));
    batcher.flush();
    server.drain();
  }
  for (const char* id : {"u1", "u2", "b1"}) {
    const std::string resp = sink.only_response(id);
    EXPECT_NE(resp.find(" invalid family too large"), std::string::npos) << resp;
  }
  EXPECT_NE(sink.only_response("b2").find(" ok "), std::string::npos);
}

// ------------------------------------------------------------- checkpoints

void populate_cache(RECache* cache) {
  for (const char* name :
       {"two_coloring.txt", "maximal_matching_3.txt", "edge_parity_3.txt",
        "sinkless_orientation_3.txt", "weak_2_coloring_r3.txt"}) {
    std::string error;
    const auto pi = load_problem_file(problem(name), &error);
    if (!pi) continue;
    const CanonicalForm canonical = canonicalize(*pi);
    cache->insert(canonical, canonical.problem);
  }
  EXPECT_GT(cache->size(), 2u);
}

TEST(ServeCheckpoint, RecoversFromBakWhenPrimaryIsTorn) {
  const std::string path = temp_path("ckpt_tear");
  remove_checkpoint_files(path);
  RECache cache;
  populate_cache(&cache);

  CheckpointManager manager(path);
  std::string error;
  ASSERT_TRUE(manager.write(cache, nullptr, &error)) << error;

  // Second write is torn by the injector: primary is now garbage, but the
  // first generation was rotated to .bak beforehand.
  std::string plan_error;
  const auto plan = ServeFaultPlan::parse("fail-checkpoint=1", &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  FaultInjector injector(*plan);
  EXPECT_FALSE(manager.write(cache, &injector, &error));
  EXPECT_EQ(manager.failures(), 1u);

  RECache recovered;
  std::string detail;
  CheckpointManager fresh_manager(path);
  EXPECT_EQ(fresh_manager.recover(&recovered, &detail),
            CheckpointManager::Recovery::kFallback)
      << detail;
  EXPECT_EQ(recovered.size(), cache.size());

  // After recovery the torn primary is not known-good, so the next write
  // must NOT rotate it over the good .bak — and once it lands atomically,
  // recovery uses the primary again.
  ASSERT_TRUE(fresh_manager.write(cache, nullptr, &error)) << error;
  RECache again;
  CheckpointManager reread(path);
  EXPECT_EQ(reread.recover(&again, &detail), CheckpointManager::Recovery::kPrimary)
      << detail;
  remove_checkpoint_files(path);
}

TEST(ServeCheckpoint, TornFirstWriteMeansNoGenerationIsServed) {
  const std::string path = temp_path("ckpt_first_tear");
  remove_checkpoint_files(path);
  RECache cache;
  populate_cache(&cache);
  CheckpointManager manager(path);
  std::string plan_error;
  const auto plan = ServeFaultPlan::parse("fail-checkpoint=1", &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  FaultInjector injector(*plan);
  std::string error;
  EXPECT_FALSE(manager.write(cache, &injector, &error));

  RECache recovered;
  std::string detail;
  CheckpointManager fresh(path);
  EXPECT_EQ(fresh.recover(&recovered, &detail), CheckpointManager::Recovery::kNone)
      << detail;
  EXPECT_EQ(recovered.size(), 0u);  // fail-closed: empty cache, wrong never
  remove_checkpoint_files(path);
}

TEST(ServeServer, CheckpointWarmStartsASecondServer) {
  const std::string path = temp_path("ckpt_warm");
  remove_checkpoint_files(path);
  const std::string request =
      "req w sequence " + problem("two_coloring.txt") + " repeat=3";
  {
    ServeOptions options;
    options.checkpoint_path = path;
    Server server(options);
    Collector sink;
    sink.attach(server);
    EXPECT_EQ(server.recovery(), CheckpointManager::Recovery::kFresh);
    EXPECT_TRUE(server.handle_line(request));
    server.drain();
    std::string error;
    ASSERT_TRUE(server.flush_checkpoint(&error)) << error;
    EXPECT_NE(sink.only_response("w").find("verdict=valid"), std::string::npos);
  }
  {
    ServeOptions options;
    options.checkpoint_path = path;
    Server server(options);
    Collector sink;
    sink.attach(server);
    EXPECT_EQ(server.recovery(), CheckpointManager::Recovery::kPrimary)
        << server.recovery_detail();
    EXPECT_GT(server.cache_counters().entries, 0u);
    EXPECT_NE(server.ready_line().find("recovered=primary"), std::string::npos)
        << server.ready_line();
    EXPECT_TRUE(server.handle_line(request));
    server.drain();
    const std::string resp = sink.only_response("w");
    EXPECT_NE(resp.find("verdict=valid"), std::string::npos) << resp;
    // The recovered cache answers the RE steps without a single search.
    EXPECT_EQ(resp.find("cache_hits=0"), std::string::npos) << resp;
  }
  remove_checkpoint_files(path);
}

// -------------------------------------------------------------------- soak

TEST(ServeSoak, FaultInjectionNeverFlipsVerdictsOrTearsServedState) {
  const std::string path = temp_path("soak");
  remove_checkpoint_files(path);
  ServeOptions options;
  options.workers = 4;
  options.queue_capacity = 16;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;
  options.retry_after_ms = 10.0;
  std::string plan_error;
  const auto plan = ServeFaultPlan::parse(
      "fail-checkpoint=2/2,delay-request=4/9:20,exhaust-request=3/7",
      &plan_error);
  ASSERT_TRUE(plan.has_value()) << plan_error;
  options.faults = *plan;
  Server server(options);
  Collector sink;
  sink.attach(server);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 12;
  std::vector<std::string> sent_ids;
  std::mutex sent_mutex;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "c" + std::to_string(t) + "-" + std::to_string(i);
        std::string line;
        switch (i % 5) {
          case 0:
          case 1:
            line = "req " + id + " sequence " + problem("two_coloring.txt") +
                   " repeat=2";
            break;
          case 2:
            line = "req " + id + " sequence /missing/file repeat=1";
            break;
          case 3:
            line = "req " + id + " sweep " + problem("two_coloring.txt") +
                   " 2 2 cycles:2..3";
            break;
          case 4:
            line = "req " + id + " sequence " + std::string(5000, 'x');
            break;
        }
        EXPECT_TRUE(server.handle_line(line));
        {
          const std::lock_guard<std::mutex> lock(sent_mutex);
          sent_ids.push_back(id);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();

  // Exactly one terminal response per request, and no verdict ever flips:
  // every ok sequence response says valid, every ok sweep response carries
  // the same verdict string.
  std::string sweep_verdicts;
  for (const std::string& id : sent_ids) {
    const auto responses = sink.responses(id);
    ASSERT_EQ(responses.size(), 1u) << id;
    const std::string& resp = responses.front();
    if (resp.find(" retryable ") != std::string::npos) {
      EXPECT_NE(resp.find("retry_after_ms="), std::string::npos) << resp;
      continue;
    }
    if (resp.find(" ok ") == std::string::npos) continue;
    if (resp.find("steps=") != std::string::npos) {
      EXPECT_NE(resp.find("verdict=valid"), std::string::npos) << resp;
    }
    const std::size_t v_at = resp.find("verdicts=");
    if (v_at != std::string::npos) {
      const std::string verdicts =
          resp.substr(v_at, resp.find(' ', v_at) - v_at);
      if (sweep_verdicts.empty()) {
        sweep_verdicts = verdicts;
      } else {
        EXPECT_EQ(verdicts, sweep_verdicts) << resp;
      }
    }
  }

  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.checkpoint_failures, 1u);  // the plan really tore files
  EXPECT_GT(counters.ok, 0u);
  EXPECT_GT(counters.invalid, 0u);

  // The final flush is honest (no injection), and whatever generation is on
  // disk after the carnage must load cleanly into a fresh server — a torn
  // checkpoint is never served.
  std::string error;
  ASSERT_TRUE(server.flush_checkpoint(&error)) << error;
  ServeOptions fresh_options;
  fresh_options.checkpoint_path = path;
  Server fresh(fresh_options);
  EXPECT_EQ(fresh.recovery(), CheckpointManager::Recovery::kPrimary)
      << fresh.recovery_detail();
  EXPECT_GT(fresh.cache_counters().entries, 0u);
  remove_checkpoint_files(path);
}

// ------------------------------------------------------ save atomicity
//
// Every persisted format saves through write_file_atomic: a SIGKILL at any
// moment leaves either the previous complete file or the new complete one
// — never a torn file. One test per format; each forks a child that saves
// the same object in a tight loop until the parent kills it mid-write.

void expect_save_survives_sigkill(
    const char* name, const std::function<bool(const std::string&)>& save,
    const std::function<bool(const std::string&, std::string*)>& load) {
  const std::string path = temp_path(name);
  std::error_code ec;
  for (const useconds_t delay_us :
       {100u, 300u, 500u, 800u, 1200u, 1700u, 2500u, 3200u, 4000u, 5000u}) {
    std::filesystem::remove(path, ec);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      for (;;) {
        if (!save(path)) _exit(2);
      }
    }
    ::usleep(delay_us);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    if (std::filesystem::exists(path, ec)) {
      std::string error;
      EXPECT_TRUE(load(path, &error))
          << "torn " << name << " after SIGKILL at " << delay_us
          << "us: " << error;
    }
  }
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp." + std::to_string(::getpid()), ec);
}

TEST(RECacheAtomicity, SaveSurvivesSigkillAtArbitraryOffsets) {
  RECache cache;
  populate_cache(&cache);
  expect_save_survives_sigkill(
      "re-cache", [&](const std::string& path) { return cache.save(path); },
      [](const std::string& path, std::string* error) {
        RECache loaded;
        return loaded.load(path, error);
      });
}

TEST(DiscoverCheckpointAtomicity, SaveSurvivesSigkillAtArbitraryOffsets) {
  // The "slocal-discover 1" frontier: what makes resuming a killed
  // `slocal_tool discover --checkpoint=` run safe.
  discover::FrontierCheckpoint frontier;
  frontier.target_length = 2;
  frontier.next_seq = 4;
  frontier.expansions = 2;
  frontier.nodes_spent = 999;
  const Problem p0 = make_matching_problem(3, 0, 1);
  const Problem p1 = make_matching_problem(3, 1, 1);
  frontier.visited = {canonicalize(p0).fingerprint, canonicalize(p1).fingerprint};
  std::sort(frontier.visited.begin(), frontier.visited.end());
  discover::FrontierNode node;
  node.score = 7;
  node.seq = 3;
  node.chain = {p0, p1};
  node.fingerprints = {canonicalize(p0).fingerprint, canonicalize(p1).fingerprint};
  frontier.frontier.push_back(node);
  expect_save_survives_sigkill(
      "discover-checkpoint",
      [&](const std::string& path) {
        return discover::save_frontier_checkpoint(frontier, path, nullptr);
      },
      [](const std::string& path, std::string* error) {
        discover::FrontierCheckpoint loaded;
        return discover::load_frontier_checkpoint(path, &loaded, error) &&
               loaded.frontier.size() == 1;
      });
}

TEST(CertificateAtomicity, SaveSurvivesSigkillAtArbitraryOffsets) {
  // A lift-unsat certificate with a DRAT refutation: a multi-kilobyte file.
  const auto certificate = cert::make_lift_unsat_certificate(
      make_matching_problem(2, 0, 1), 5, 5, make_complete_bipartite(5, 5));
  ASSERT_TRUE(certificate.has_value());
  expect_save_survives_sigkill(
      "certificate",
      [&](const std::string& path) {
        return cert::save_certificate(*certificate, path, nullptr);
      },
      [](const std::string& path, std::string* error) {
        cert::Certificate loaded;
        return cert::load_certificate(path, &loaded, error);
      });
}

// ------------------------------------------------------------- subprocess

/// A running slocal_serve child with pipes on stdin/stdout.
struct ServeProcess {
  pid_t pid = -1;
  int to_child = -1;
  int from_child = -1;
  std::string buffered;

  bool send(const std::string& text) {
    const char* data = text.data();
    std::size_t left = text.size();
    while (left > 0) {
      const ssize_t n = ::write(to_child, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until `needle` appears in the accumulated output (or ~5s pass).
  bool read_until(const std::string& needle) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (buffered.find(needle) == std::string::npos) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      char buf[1024];
      const ssize_t n = ::read(from_child, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return buffered.find(needle) != std::string::npos;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  int close_stdin_and_wait() {
    if (to_child >= 0) ::close(to_child);
    to_child = -1;
    // Drain the child's remaining output so it never blocks on a full pipe.
    for (;;) {
      char buf[1024];
      const ssize_t n = ::read(from_child, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buffered.append(buf, static_cast<std::size_t>(n));
    }
    ::close(from_child);
    from_child = -1;
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  }
};

ServeProcess spawn_serve(std::vector<std::string> args) {
  ServeProcess proc;
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) return proc;
  const pid_t pid = fork();
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    static const std::string binary = SLOCAL_SERVE_PATH;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  proc.pid = pid;
  proc.to_child = in_pipe[1];
  proc.from_child = out_pipe[0];
  return proc;
}

TEST(ServeBinary, ReadyBannerRequestsAndEofShutdown) {
  ServeProcess proc = spawn_serve({"--workers=2"});
  ASSERT_GT(proc.pid, 0);
  ASSERT_TRUE(proc.read_until("ready ")) << proc.buffered;
  EXPECT_NE(proc.buffered.find("recovered=disabled"), std::string::npos)
      << proc.buffered;
  ASSERT_TRUE(proc.send("ping\nreq b1 sequence " + problem("two_coloring.txt") +
                        " repeat=2\n"));
  ASSERT_TRUE(proc.read_until("resp b1 ")) << proc.buffered;
  const int status = proc.close_stdin_and_wait();  // EOF = clean shutdown
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(proc.buffered.find("pong"), std::string::npos) << proc.buffered;
  EXPECT_NE(proc.buffered.find("resp b1 ok"), std::string::npos)
      << proc.buffered;
  EXPECT_NE(proc.buffered.find("verdict=valid"), std::string::npos)
      << proc.buffered;
  EXPECT_NE(proc.buffered.find("bye checkpoint=flushed"), std::string::npos)
      << proc.buffered;
}

TEST(ServeBinary, ShutdownRequestExitsZero) {
  ServeProcess proc = spawn_serve({});
  ASSERT_GT(proc.pid, 0);
  ASSERT_TRUE(proc.read_until("ready ")) << proc.buffered;
  ASSERT_TRUE(proc.send("shutdown\n"));
  const int status = proc.close_stdin_and_wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(proc.buffered.find("bye "), std::string::npos) << proc.buffered;
}

TEST(ServeBinary, SigtermFlushesCheckpointAndExitsZero) {
  const std::string path = temp_path("sigterm_ckpt");
  remove_checkpoint_files(path);
  ServeProcess proc = spawn_serve({"--checkpoint=" + path});
  ASSERT_GT(proc.pid, 0);
  ASSERT_TRUE(proc.read_until("ready ")) << proc.buffered;
  ASSERT_TRUE(proc.send("req t1 sequence " + problem("two_coloring.txt") +
                        " repeat=2\n"));
  ASSERT_TRUE(proc.read_until("resp t1 ")) << proc.buffered;
  ASSERT_EQ(::kill(proc.pid, SIGTERM), 0);
  const int status = proc.close_stdin_and_wait();
  EXPECT_TRUE(WIFEXITED(status)) << proc.buffered;
  EXPECT_EQ(WEXITSTATUS(status), 0) << proc.buffered;
  EXPECT_NE(proc.buffered.find("bye checkpoint=flushed"), std::string::npos)
      << proc.buffered;
  RECache loaded;
  std::string error;
  EXPECT_TRUE(loaded.load(path, &error)) << error;
  EXPECT_GT(loaded.size(), 0u);
  remove_checkpoint_files(path);
}

TEST(ServeBinary, RejectsBadFlagsWithUsage) {
  // A malformed numeric value is a usage error, never a silent default.
  for (const char* flag : {"--fault-plan=bogus=1", "--workers=abc"}) {
    ServeProcess proc = spawn_serve({flag});
    ASSERT_GT(proc.pid, 0);
    const int status = proc.close_stdin_and_wait();
    EXPECT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 64) << flag;
  }
}

TEST(ServeBinary, EofDrainsInFlightRequestsBeforeShutdown) {
  // A piped client closes stdin right after its last request: the request
  // still runs to its verdict (drain first), it is not cancelled at EOF.
  ServeProcess proc = spawn_serve({});
  ASSERT_GT(proc.pid, 0);
  ASSERT_TRUE(proc.send("req e1 sequence " + problem("two_coloring.txt") +
                        " repeat=4\n"));
  const int status = proc.close_stdin_and_wait();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(proc.buffered.find("resp e1 ok"), std::string::npos) << proc.buffered;
  EXPECT_NE(proc.buffered.find("verdict=valid"), std::string::npos) << proc.buffered;
  EXPECT_NE(proc.buffered.find("bye checkpoint=flushed"), std::string::npos)
      << proc.buffered;
}

TEST(ToolSignals, SigintExitsThreeAndLeavesCacheLoadable) {
  const std::string cache = temp_path("tool_sigint_cache");
  std::error_code ec;
  std::filesystem::remove(cache, ec);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string file = problem("two_coloring.txt");
    ::execl(SLOCAL_TOOL_PATH, SLOCAL_TOOL_PATH, "sequence", file.c_str(),
            "--repeat=100000", ("--re-cache=" + cache).c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  // Give the tool time to install its handlers and enter the search, then
  // interrupt it mid-run.
  ::usleep(300'000);
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "tool was killed, not cancelled";
  EXPECT_EQ(WEXITSTATUS(status), 3);
  // The cancelled run still saved its warm cache — and saved it atomically.
  if (std::filesystem::exists(cache, ec)) {
    RECache loaded;
    std::string error;
    EXPECT_TRUE(loaded.load(cache, &error)) << error;
  }
  std::filesystem::remove(cache, ec);
}

}  // namespace
}  // namespace slocal::serve
