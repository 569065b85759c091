#include "src/util/strings.hpp"

#include <algorithm>

namespace slocal {

std::vector<std::string> split(std::string_view text, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find_first_of(delims, start);
    const std::size_t stop = end == std::string_view::npos ? text.size() : end;
    if (stop > start) out.emplace_back(text.substr(start, stop - start));
    start = stop + 1;
  }
  return out;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::size_t stop = end == std::string_view::npos ? text.size() : end;
    const std::string line = trim(text.substr(start, stop - start));
    if (!line.empty()) out.push_back(line);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

std::string trim(std::string_view text) {
  const auto* ws = " \t\r\n";
  const std::size_t b = text.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  const std::size_t e = text.find_last_not_of(ws);
  return std::string(text.substr(b, e - b + 1));
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace slocal
