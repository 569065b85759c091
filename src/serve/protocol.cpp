#include "src/serve/protocol.hpp"

#include <cstdio>
#include <sstream>

#include "src/util/strings.hpp"

namespace slocal::serve {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Parses trailing key=value options shared by sequence and sweep.
bool parse_options(const std::vector<std::string>& tokens, std::size_t first,
                   Request* req, std::string* error) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) return fail(error, "bad option '" + t + "'");
    const std::string key = t.substr(0, eq);
    std::uint64_t value = 0;
    if (!parse_u64(t.substr(eq + 1), &value)) {
      return fail(error, "bad numeric value in '" + t + "'");
    }
    if (key == "repeat") {
      req->repeat = static_cast<std::size_t>(value);
    } else if (key == "max-nodes") {
      req->max_nodes = value;
    } else if (key == "timeout-ms") {
      req->timeout_ms = value;
    } else if (req->kind == Request::Kind::kDiscover && key == "target") {
      req->target = static_cast<std::size_t>(value);
    } else if (req->kind == Request::Kind::kDiscover && key == "beam") {
      req->beam = static_cast<std::size_t>(value);
    } else if (req->kind == Request::Kind::kDiscover && key == "max-expansions") {
      req->max_expansions = static_cast<std::size_t>(value);
    } else {
      return fail(error, "unknown option '" + key + "'");
    }
  }
  return true;
}

}  // namespace

const char* to_string(ErrorClass c) {
  switch (c) {
    case ErrorClass::kOk:
      return "ok";
    case ErrorClass::kInvalid:
      return "invalid";
    case ErrorClass::kRetryable:
      return "retryable";
    case ErrorClass::kCorrupt:
      return "corrupt";
  }
  return "?";
}

std::optional<Request> parse_request_line(const std::string& line, std::string* error,
                                          std::string* error_id) {
  if (error_id != nullptr) error_id->clear();
  // The id is recovered even from oversized or malformed lines whenever the
  // first two tokens look like "req <id>", so the invalid response still
  // correlates. Only then is the size cap enforced.
  const std::vector<std::string> tokens = tokenize(
      line.size() > kMaxRequestLine ? line.substr(0, kMaxRequestLine) : line);
  if (tokens.empty()) {
    fail(error, "empty request line");
    return std::nullopt;
  }
  Request req;
  if (tokens[0] == "ping") {
    req.kind = Request::Kind::kPing;
    return req;
  }
  if (tokens[0] == "stats") {
    req.kind = Request::Kind::kStats;
    return req;
  }
  if (tokens[0] == "checkpoint") {
    req.kind = Request::Kind::kCheckpoint;
    return req;
  }
  if (tokens[0] == "shutdown") {
    req.kind = Request::Kind::kShutdown;
    return req;
  }
  if (tokens[0] != "req") {
    fail(error, "unknown request '" + tokens[0] + "'");
    return std::nullopt;
  }
  if (tokens.size() < 3) {
    fail(error, "req needs an id and a command");
    return std::nullopt;
  }
  if (tokens[1].size() > kMaxRequestId) {
    fail(error, "request id too long");
    return std::nullopt;
  }
  req.id = tokens[1];
  if (error_id != nullptr) *error_id = req.id;
  if (line.size() > kMaxRequestLine) {
    fail(error, "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
    return std::nullopt;
  }

  const std::string& cmd = tokens[2];
  if (cmd == "sequence") {
    if (tokens.size() < 4) {
      fail(error, "sequence needs a problem file");
      return std::nullopt;
    }
    req.kind = Request::Kind::kSequence;
    req.path = tokens[3];
    if (!parse_options(tokens, 4, &req, error)) return std::nullopt;
    if (req.repeat < 1) {
      fail(error, "sequence needs repeat >= 1");
      return std::nullopt;
    }
    return req;
  }
  if (cmd == "sweep") {
    if (tokens.size() < 7) {
      fail(error, "sweep needs <problem-file> <delta> <r> <family>");
      return std::nullopt;
    }
    req.kind = Request::Kind::kSweep;
    req.path = tokens[3];
    std::uint64_t delta = 0, r = 0;
    if (!parse_u64(tokens[4], &delta) || !parse_u64(tokens[5], &r) || delta == 0 ||
        r == 0) {
      fail(error, "bad lift targets");
      return std::nullopt;
    }
    req.big_delta = static_cast<std::size_t>(delta);
    req.big_r = static_cast<std::size_t>(r);
    req.family = tokens[6];
    if (!parse_options(tokens, 7, &req, error)) return std::nullopt;
    return req;
  }
  if (cmd == "discover") {
    if (tokens.size() < 4) {
      fail(error, "discover needs a comma-joined problem family");
      return std::nullopt;
    }
    req.kind = Request::Kind::kDiscover;
    req.path = tokens[3];
    if (!parse_options(tokens, 4, &req, error)) return std::nullopt;
    if (req.target < 1 || req.beam < 1 || req.max_expansions < 1) {
      fail(error, "discover needs target, beam, max-expansions >= 1");
      return std::nullopt;
    }
    return req;
  }
  if (cmd == "check-cert") {
    if (tokens.size() < 4) {
      fail(error, "check-cert needs a certificate file");
      return std::nullopt;
    }
    req.kind = Request::Kind::kCheckCert;
    req.path = tokens[3];
    if (tokens.size() > 4) {
      fail(error, "check-cert takes no options");
      return std::nullopt;
    }
    return req;
  }
  fail(error, "unknown command '" + cmd + "'");
  return std::nullopt;
}

std::string format_response(const Response& r) {
  std::string out = "resp ";
  out += r.id.empty() ? "-" : r.id;
  out += ' ';
  out += to_string(r.cls);
  if (r.cls == ErrorClass::kRetryable) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " retry_after_ms=%.0f", r.retry_after_ms);
    out += " reason=";
    // Machine-friendly token (to_string(ExhaustReason) has a space in
    // "node limit" / "conflict limit").
    switch (r.consumed.reason) {
      case ExhaustReason::kNone:
        out += r.body.empty() ? "admission" : r.body;
        break;
      case ExhaustReason::kCancelled:
        out += "cancelled";
        break;
      case ExhaustReason::kDeadline:
        out += "deadline";
        break;
      case ExhaustReason::kNodes:
        out += "nodes";
        break;
      case ExhaustReason::kConflicts:
        out += "conflicts";
        break;
    }
    out += buf;
  }
  if (r.has_consumption) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " nodes=%llu conflicts=%llu elapsed_ms=%.1f",
                  static_cast<unsigned long long>(r.consumed.nodes),
                  static_cast<unsigned long long>(r.consumed.conflicts),
                  r.consumed.elapsed_ms);
    out += buf;
  }
  if (r.cls != ErrorClass::kRetryable && !r.body.empty()) {
    out += ' ';
    out += r.body;
  }
  return out;
}

Response make_ok(const std::string& id, const std::string& body,
                 const BudgetConsumption& consumed) {
  Response r;
  r.id = id;
  r.cls = ErrorClass::kOk;
  r.body = body;
  r.consumed = consumed;
  r.has_consumption = true;
  return r;
}

Response make_invalid(const std::string& id, const std::string& message) {
  Response r;
  r.id = id;
  r.cls = ErrorClass::kInvalid;
  r.body = message;
  return r;
}

Response make_retryable(const std::string& id, const std::string& reason,
                        double retry_after_ms, const BudgetConsumption& consumed) {
  Response r;
  r.id = id;
  r.cls = ErrorClass::kRetryable;
  r.body = reason;
  r.retry_after_ms = retry_after_ms;
  r.consumed = consumed;
  r.has_consumption = true;
  return r;
}

Response make_corrupt(const std::string& id, const std::string& message) {
  Response r;
  r.id = id;
  r.cls = ErrorClass::kCorrupt;
  r.body = message;
  return r;
}

}  // namespace slocal::serve
