#include "src/net/client.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

namespace slocal::net {

namespace {

using Clock = std::chrono::steady_clock;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::uint64_t ms_left(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  return left > 0 ? static_cast<std::uint64_t>(left) : 0;
}

/// The id a response must carry to answer `line` ("" for control lines).
std::string request_id_of(const std::string& line) {
  if (line.rfind("req ", 0) != 0) return {};
  const std::size_t id_start = 4;
  const std::size_t id_end = line.find(' ', id_start);
  return line.substr(id_start, id_end == std::string::npos ? std::string::npos
                                                           : id_end - id_start);
}

}  // namespace

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      io_timeout_ms_(other.io_timeout_ms_),
      framer_(std::move(other.framer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    io_timeout_ms_ = other.io_timeout_ms_;
    framer_ = std::move(other.framer_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::wait_ready(short events, std::uint64_t timeout_ms, std::string* error) {
  pollfd pfd{fd_, events, 0};
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const std::uint64_t left = ms_left(deadline);
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return fail(error, "poll: " + std::string(strerror(errno)));
    }
    if (ready == 0) return fail(error, "timed out");
    return true;
  }
}

bool Client::connect(const ClientOptions& options, std::string* error) {
  close();
  io_timeout_ms_ = options.io_timeout_ms;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail(error, "socket: " + std::string(strerror(errno)));
  // Requests are single lines: no Nagle delay behind the server's ACK.
  const int on = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    close();
    return fail(error, "bad host '" + options.host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      const std::string message = strerror(errno);
      close();
      return fail(error, "connect: " + message);
    }
    if (!wait_ready(POLLOUT, options.connect_timeout_ms, error)) {
      close();
      return false;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      close();
      return fail(error, "connect: " +
                             std::string(strerror(so_error != 0 ? so_error : errno)));
    }
  }
  return true;
}

bool Client::send_line(const std::string& line, std::string* error) {
  if (fd_ < 0) return fail(error, "not connected");
  const std::string out = line + "\n";
  std::size_t written = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  while (written < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + written, out.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (ms_left(deadline) == 0) return fail(error, "send timed out");
        if (!wait_ready(POLLOUT, ms_left(deadline), error)) return false;
        continue;
      }
      return fail(error, "send: " + std::string(strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> Client::read_line(std::string* error) {
  if (fd_ < 0) {
    fail(error, "not connected");
    return std::nullopt;
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(io_timeout_ms_);
  while (true) {
    if (const auto line = framer_.next()) return line;
    const std::uint64_t left = ms_left(deadline);
    if (left == 0) {
      fail(error, "read timed out");
      return std::nullopt;
    }
    if (!wait_ready(POLLIN, left, error)) return std::nullopt;
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      framer_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      fail(error, "connection closed by server");
      return std::nullopt;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    fail(error, "recv: " + std::string(strerror(errno)));
    return std::nullopt;
  }
}

std::optional<std::string> Client::request(const std::string& line,
                                           std::string* error) {
  if (!send_line(line, error)) return std::nullopt;
  const std::string want_id = request_id_of(line);
  const std::string want_prefix = "resp " + want_id + " ";
  while (true) {
    const auto response = read_line(error);
    if (!response) return std::nullopt;
    if (want_id.empty()) {
      // Control line: the next non-response line answers it (responses to
      // earlier ids may still be streaming in).
      if (response->rfind("resp ", 0) != 0) return response;
      continue;
    }
    if (response->rfind(want_prefix, 0) == 0) return response;
  }
}

}  // namespace slocal::net
