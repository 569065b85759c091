#include "src/net/tcp_server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace slocal::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll cadence while serving: bounds response-flush latency for outbox
/// lines queued by workers between wakeups, and the idle-scan granularity.
constexpr int kLoopTickMs = 50;

}  // namespace

TcpServer::TcpServer(serve::Server& server, const TcpServerOptions& options)
    : server_(server), options_(options) {
  options_.max_connections = std::max<std::size_t>(1, options_.max_connections);
}

TcpServer::~TcpServer() {
  // Idempotent teardown for the start()-but-never-run() and post-run()
  // paths alike: every ConnState is marked dead under its mutex before the
  // loop (and its self-pipe) goes away, so a late worker sink can never
  // touch a freed loop.
  std::vector<int> fds;
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool TcpServer::start(std::string* error) {
  if (!loop_.valid()) {
    if (error != nullptr) *error = "event loop self-pipe creation failed";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (error != nullptr) *error = "bind: " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) < 0) {
    if (error != nullptr) *error = "listen: " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  loop_.watch(listen_fd_, POLLIN, [this](short) { accept_ready(); });
  return true;
}

void TcpServer::stop() {
  stopped_.store(true, std::memory_order_release);
  loop_.wakeup();
}

serve::Server::Sink TcpServer::make_sink(std::shared_ptr<ConnState> state) {
  return [this, state = std::move(state)](const std::string& line) {
    const std::lock_guard<std::mutex> lock(state->mutex);
    // alive == true under the lock implies teardown has not run for this
    // connection, which implies *this (and its loop) are still alive —
    // close_conn flips the flag under the same mutex before either dies.
    if (!state->alive) return;
    state->outbox.push_back(line + "\n");
    loop_.wakeup();
  };
}

void TcpServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: next poll retries
    }
    // Responses are single lines: send each at once instead of letting
    // Nagle hold it back for the client's delayed ACK.
    const int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    {
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      ++counters_.accepted;
    }
    // Deterministic fault: drop this accept before a single byte moves.
    if (server_.injector().next_accept_dropped()) {
      ::close(fd);
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      ++counters_.dropped;
      continue;
    }
    // Connection cap: shed with the protocol's retryable class, exactly
    // like admission control sheds requests one layer down.
    if (conns_.size() >= options_.max_connections) {
      const std::string line =
          serve::format_response(serve::make_retryable(
              "", "connections", options_.retry_after_ms, {})) +
          "\n";
      // Best effort on a fresh socket (the buffer is empty, this fits).
      ssize_t ignored = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      (void)ignored;
      ::close(fd);
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      ++counters_.shed;
      continue;
    }

    Conn conn;
    conn.fd = fd;
    conn.state = std::make_shared<ConnState>();
    conn.last_activity = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.emplace(fd, std::move(conn));
    }
    loop_.watch(fd, POLLIN, [this, fd](short revents) { conn_ready(fd, revents); });
  }
}

void TcpServer::conn_ready(int fd, short revents) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  bool close = false;
  bool eof = false;
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.framer.feed(buf, static_cast<std::size_t>(n));
        conn.last_activity = Clock::now();
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close = true;  // reset or another hard error
      break;
    }
  }

  // Dispatch every completed line with this connection's sink; the server
  // answers inline (control/invalid/admission) or from a worker later.
  const serve::Server::Sink sink = make_sink(conn.state);
  while (const auto line = conn.framer.next()) {
    {
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      ++counters_.lines_in;
      if (line->size() > serve::kMaxRequestLine) ++counters_.oversized_lines;
    }
    if (!server_.handle_line(*line, sink)) {
      stopped_.store(true, std::memory_order_release);
    }
  }

  if (!flush_outbox(conn)) close = true;

  if (eof || close) {
    const std::lock_guard<std::mutex> lock(counter_mutex_);
    if (eof) {
      ++counters_.eof_closed;
    } else {
      ++counters_.error_closed;
    }
  }
  if (eof || close) {
    close_conn(fd);
    return;
  }
  update_interest(conn);
}

bool TcpServer::flush_outbox(Conn& conn) {
  const std::lock_guard<std::mutex> lock(conn.state->mutex);
  auto& outbox = conn.state->outbox;
  while (!outbox.empty()) {
    const std::string& line = outbox.front();
    const char* data = line.data() + conn.state->front_offset;
    const std::size_t left = line.size() - conn.state->front_offset;
    const ssize_t n = ::send(conn.fd, data, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // wait for POLLOUT
      return false;  // EPIPE / ECONNRESET / ...: client is gone
    }
    conn.state->front_offset += static_cast<std::size_t>(n);
    conn.last_activity = Clock::now();
    if (conn.state->front_offset == line.size()) {
      outbox.pop_front();
      conn.state->front_offset = 0;
      const std::lock_guard<std::mutex> counter_lock(counter_mutex_);
      ++counters_.responses_out;
    }
  }
  return true;
}

void TcpServer::update_interest(Conn& conn) {
  short events = POLLIN;
  {
    const std::lock_guard<std::mutex> lock(conn.state->mutex);
    if (!conn.state->outbox.empty()) events |= POLLOUT;
  }
  loop_.set_events(conn.fd, events);
}

void TcpServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  {
    // Mark dead BEFORE the fd goes away: worker sinks observing alive ==
    // false drop their response; ones already past the check have queued
    // into an outbox we simply discard.
    const std::lock_guard<std::mutex> lock(it->second.state->mutex);
    it->second.state->alive = false;
    it->second.state->outbox.clear();
  }
  loop_.unwatch(fd);
  ::close(fd);
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.erase(fd);
  }
}

void TcpServer::scan_idle() {
  if (options_.idle_timeout_ms == 0) return;
  const auto now = Clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (now - conn.last_activity > limit) idle.push_back(fd);
  }
  for (const int fd : idle) {
    {
      const std::lock_guard<std::mutex> lock(counter_mutex_);
      ++counters_.idle_closed;
    }
    close_conn(fd);
  }
}

void TcpServer::run() {
  while (!stopped_.load(std::memory_order_acquire) &&
         !server_.shutdown_requested()) {
    if (!loop_.run_once(kLoopTickMs)) break;
    // Flush outboxes the workers filled since the last pass and refresh
    // each connection's interest set; drop connections that died mid-write.
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!flush_outbox(conn)) {
        dead.push_back(fd);
        continue;
      }
      update_interest(conn);
    }
    for (const int fd : dead) {
      {
        const std::lock_guard<std::mutex> lock(counter_mutex_);
        ++counters_.error_closed;
      }
      close_conn(fd);
    }
    scan_idle();
  }

  // Graceful end: stop accepting, let every admitted request finish (their
  // responses land in the outboxes), flush what the clients will take,
  // close everything.
  if (listen_fd_ >= 0) {
    loop_.unwatch(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  server_.request_shutdown();
  server_.drain();
  flush_all_before_close();
}

void TcpServer::flush_all_before_close() {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.shutdown_flush_ms);
  while (Clock::now() < deadline) {
    bool pending = false;
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!flush_outbox(conn)) {
        dead.push_back(fd);
        continue;
      }
      const std::lock_guard<std::mutex> lock(conn.state->mutex);
      if (!conn.state->outbox.empty()) pending = true;
    }
    for (const int fd : dead) close_conn(fd);
    if (!pending) break;
    // Wait for writability on whichever socket is backed up.
    std::vector<pollfd> fds;
    for (const auto& [fd, conn] : conns_) fds.push_back(pollfd{fd, POLLOUT, 0});
    if (!fds.empty()) ::poll(fds.data(), fds.size(), 100);
  }
  std::vector<int> fds;
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
}

TcpServerCounters TcpServer::counters() const {
  const std::lock_guard<std::mutex> lock(counter_mutex_);
  return counters_;
}

std::size_t TcpServer::active_connections() const {
  const std::lock_guard<std::mutex> lock(conns_mutex_);
  return conns_.size();
}

}  // namespace slocal::net
