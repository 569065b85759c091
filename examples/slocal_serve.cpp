// slocal_serve — the framework as a long-running service.
//
// Reads request lines from stdin, answers response lines on stdout (see
// src/serve/protocol.hpp for the grammar), and keeps one hot RECache plus a
// sweep memo shared across every request. The robustness contract:
//
//   * overload is shed at admission with structured retryable responses
//     (retry_after_ms hint, the CLI's exit-3 class as a 429), never by
//     queueing unboundedly;
//   * every request runs under its own budget and deadline; the watchdog
//     cancels overdue work and degrades capacity around wedged workers;
//   * the cache is checkpointed crash-safely (atomic write + .bak rotation)
//     and recovered on startup — a torn checkpoint is detected and the
//     previous good generation served instead;
//   * SIGINT/SIGTERM trip the global cancel token (in-flight requests
//     finish as retryable), the cache is flushed, and the process exits 0
//     (1 only when the final flush itself fails).
//
//   slocal_serve [--workers=N] [--queue=N] [--max-nodes=N] [--timeout-ms=N]
//                [--max-timeout-ms=N] [--retry-after-ms=N]
//                [--checkpoint=PATH] [--checkpoint-every=N]
//                [--fault-plan=SPEC] [--listen=PORT] [--max-connections=N]
//                [--idle-timeout-ms=N] [--batch-window-ms=N]
//
// --fault-plan injects deterministic faults for testing (see
// src/serve/fault_plan.hpp): fail-checkpoint=<n>[/<p>],
// delay-request=<n>[/<p>]:<ms>, exhaust-request=<n>[/<p>],
// drop-connection=<n>[/<p>].
//
// --listen=PORT switches from the stdin/stdout pipe to a localhost TCP
// listener (src/net/): many concurrent connections, per-connection
// buffering, idle timeouts, connection-cap shedding, and the batching
// sweep dispatcher. PORT 0 binds an ephemeral port; the chosen port is
// announced as `listening port=N` on stdout. Without --listen the stdin
// loop below is byte-identical to previous releases.
#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/net/batcher.hpp"
#include "src/net/event_loop.hpp"
#include "src/net/tcp_server.hpp"
#include "src/serve/server.hpp"
#include "src/util/strings.hpp"

namespace {

using slocal::net::SweepBatcher;
using slocal::net::SweepBatcherOptions;
using slocal::net::TcpServer;
using slocal::net::TcpServerOptions;
using slocal::serve::Server;
using slocal::serve::ServeFaultPlan;
using slocal::serve::ServeOptions;

/// The running server, published once before the handlers are installed.
/// The handler only calls request_shutdown(), which is two lock-free atomic
/// stores — async-signal-safe by construction. In listen mode the TCP
/// front-end is published too: stop() is an atomic store plus one write(2)
/// to the event loop's wake pipe, both async-signal-safe.
std::atomic<Server*> g_server{nullptr};
std::atomic<TcpServer*> g_tcp{nullptr};

void handle_signal(int /*signo*/) {
  Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_shutdown();
  TcpServer* tcp = g_tcp.load(std::memory_order_acquire);
  if (tcp != nullptr) tcp->stop();
}

void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the blocking read must see EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client that disconnects mid-response must not kill the process: every
  // send uses MSG_NOSIGNAL, and SIG_IGN covers the stdout pipe too.
  signal(SIGPIPE, SIG_IGN);
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: slocal_serve [flags]\n"
      "  --workers=N          worker threads (default 2)\n"
      "  --queue=N            max in-flight requests before admission "
      "rejects (default 8)\n"
      "  --max-nodes=N        default/maximum per-request node budget "
      "(0 = unlimited)\n"
      "  --timeout-ms=N       default per-request deadline (default 10000)\n"
      "  --max-timeout-ms=N   cap on requested deadlines (default 60000)\n"
      "  --retry-after-ms=N   hint attached to retryable responses "
      "(default 50)\n"
      "  --checkpoint=PATH    crash-safe RE-cache checkpoint file\n"
      "  --checkpoint-every=N checkpoint cadence in completed requests "
      "(0 = only at shutdown)\n"
      "  --fault-plan=SPEC    deterministic fault injection (tests): "
      "fail-checkpoint=<n>[/<p>], delay-request=<n>[/<p>]:<ms>, "
      "exhaust-request=<n>[/<p>], drop-connection=<n>[/<p>]\n"
      "  --listen=PORT        serve localhost TCP instead of stdin "
      "(0 = ephemeral; prints 'listening port=N')\n"
      "  --max-connections=N  concurrent connection cap in listen mode "
      "(default 64; excess shed retryable)\n"
      "  --idle-timeout-ms=N  close idle connections in listen mode "
      "(default 30000)\n"
      "  --batch-window-ms=N  sweep batching window in listen mode "
      "(default 10; 0 disables batching)\n"
      "requests on stdin, one per line; responses on stdout, correlated by "
      "id (see src/serve/protocol.hpp)\n"
      "exit codes: 0 clean shutdown (EOF, 'shutdown', SIGINT/SIGTERM), "
      "1 final checkpoint flush failed, 64 usage\n");
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  bool listen_mode = false;
  TcpServerOptions tcp_options;
  std::uint64_t batch_window_ms = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Numeric flags are strict decimals: a malformed value is a usage
    // error, never a silent 0 (an unlimited budget, an ephemeral port, ...).
    bool malformed = false;
    const auto number = [&](std::string_view flag, auto* out,
                            std::uint64_t max = UINT64_MAX) {
      if (arg.rfind(flag, 0) != 0) return false;
      std::uint64_t value = 0;
      malformed = !slocal::parse_u64(arg.substr(flag.size()), &value) || value > max;
      *out = static_cast<std::remove_reference_t<decltype(*out)>>(value);
      return true;
    };
    if (arg == "--help") {
      print_usage(stdout);
      return 0;
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      options.checkpoint_path = arg.substr(13);
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      std::string error;
      const auto plan = ServeFaultPlan::parse(std::string(arg.substr(13)), &error);
      if (!plan) {
        std::fprintf(stderr, "--fault-plan: %s\n", error.c_str());
        return 64;
      }
      options.faults = *plan;
    } else if (number("--listen=", &tcp_options.port, 65535)) {
      listen_mode = true;
    } else if (!number("--workers=", &options.workers) &&
               !number("--queue=", &options.queue_capacity) &&
               !number("--max-nodes=", &options.default_max_nodes) &&
               !number("--timeout-ms=", &options.default_timeout_ms) &&
               !number("--max-timeout-ms=", &options.max_timeout_ms) &&
               !number("--retry-after-ms=", &options.retry_after_ms) &&
               !number("--checkpoint-every=", &options.checkpoint_every) &&
               !number("--max-connections=", &tcp_options.max_connections) &&
               !number("--idle-timeout-ms=", &tcp_options.idle_timeout_ms) &&
               !number("--batch-window-ms=", &batch_window_ms)) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      print_usage(stderr);
      return 64;
    }
    if (malformed) {
      std::fprintf(stderr, "malformed value in '%s'\n", argv[i]);
      print_usage(stderr);
      return 64;
    }
  }

  Server server(options);
  if (!listen_mode) {
    server.set_response_sink([](const std::string& line) {
      // Serialized by the server; one EINTR-safe write per response so a
      // client driving us through a pipe sees every line promptly even
      // when signals land mid-write (handlers install without SA_RESTART).
      const std::string out = line + "\n";
      slocal::net::write_fully(STDOUT_FILENO, out.data(), out.size());
    });
  }

  g_server.store(&server, std::memory_order_release);
  install_signal_handlers();

  std::printf("%s\n", server.ready_line().c_str());
  if (server.recovery() != slocal::serve::CheckpointManager::Recovery::kDisabled) {
    std::fprintf(stderr, "recovery: %s\n", server.recovery_detail().c_str());
  }
  std::fflush(stdout);

  if (listen_mode) {
    tcp_options.retry_after_ms = options.retry_after_ms;
    // Lifetime contract: batcher after the server (detaches before the
    // server dies), TCP front-end last (torn down before the batcher so no
    // connection can enqueue into a dying window).
    SweepBatcherOptions batch_options;
    batch_options.window_ms = batch_window_ms;
    SweepBatcher batcher(server, batch_options);
    if (batch_window_ms > 0) batcher.attach();
    TcpServer tcp(server, tcp_options);
    std::string error;
    if (!tcp.start(&error)) {
      std::fprintf(stderr, "--listen: %s\n", error.c_str());
      return 1;
    }
    std::printf("listening port=%u\n", static_cast<unsigned>(tcp.port()));
    std::fflush(stdout);
    g_tcp.store(&tcp, std::memory_order_release);
    tcp.run();  // returns after shutdown: drained, connections flushed
    g_tcp.store(nullptr, std::memory_order_release);
  } else {
    // Raw read(2) instead of iostreams so a signal interrupts the blocking
    // read (EINTR) and the loop re-checks the shutdown flag.
    std::string pending;
    char buf[4096];
    bool running = true;
    while (running && !server.shutdown_requested()) {
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;  // EOF: drain and shut down cleanly
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t newline;
      while (running && (newline = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, newline);
        pending.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        running = server.handle_line(line);
      }
    }
    if (running && !server.shutdown_requested() && !pending.empty()) {
      server.handle_line(pending);  // trailing line without newline at EOF
    }
  }

  // Drain before cancelling: at stdin EOF the in-flight requests finish with
  // their verdicts. A `shutdown` request or a signal has already tripped the
  // cancel token, so those requests wind down as retryable instead.
  server.drain();
  server.request_shutdown();
  std::string flush_error;
  const bool flushed = server.flush_checkpoint(&flush_error);
  if (!flushed) {
    std::fprintf(stderr, "final checkpoint flush failed: %s\n",
                 flush_error.c_str());
  }
  std::printf("%s\nbye checkpoint=%s\n", server.stats_line().c_str(),
              flushed ? "flushed" : "failed");
  std::fflush(stdout);
  g_server.store(nullptr, std::memory_order_release);
  return flushed ? 0 : 1;
}
