// A small streaming JSON writer for the BENCH_*.json reports: each value is
// written with its key in one call, json.field("rounds", c.rounds), and a
// counter struct goes in whole through its field list, json.fields(stats)
// (src/util/fields.hpp). Indented two spaces per level, one key per line.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/util/fields.hpp"

namespace slocal {

class JsonWriter {
 public:
  /// Opens the root object on `out` (not owned); finish() closes it.
  explicit JsonWriter(std::FILE* out) : out_(out) { open('{'); }
  void finish() {
    end();
    std::fputc('\n', out_);
  }

  /// `"key": {` / `"key": [`; an empty key opens an element of an array.
  void begin_object(std::string_view key = {}) {
    item(key);
    open('{');
  }
  void begin_array(std::string_view key) {
    item(key);
    open('[');
  }
  /// Closes the innermost object or array.
  void end() {
    const char closer = closers_.back();
    closers_.pop_back();
    newline();
    std::fputc(closer, out_);
    first_ = false;
  }

  /// Flags as true/false, integers in decimal, floating point with
  /// `precision` decimals, anything else as a string.
  template <typename T>
  void field(std::string_view key, const T& value, int precision = 3) {
    item(key);
    if constexpr (std::is_same_v<T, bool>) {
      std::fputs(value ? "true" : "false", out_);
    } else if constexpr (std::is_integral_v<T>) {
      std::fputs(std::to_string(value).c_str(), out_);
    } else if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(out_, "%.*f", precision, static_cast<double>(value));
    } else {
      string(value);
    }
  }

  /// Every field of a counter struct, under its field-list name.
  template <typename Stats>
  void fields(const Stats& stats) {
    Stats::for_each_field(
        [&](std::string_view name, auto member, Merge) { field(name, stats.*member); });
  }

 private:
  void open(char bracket) {
    std::fputc(bracket, out_);
    closers_ += bracket == '{' ? '}' : ']';
    first_ = true;
  }
  /// Separator, newline and indentation before a member, then its key.
  void item(std::string_view key) {
    if (!first_) std::fputc(',', out_);
    first_ = false;
    newline();
    if (key.empty()) return;
    string(key);
    std::fputs(": ", out_);
  }
  void newline() { std::fprintf(out_, "\n%*s", static_cast<int>(2 * closers_.size()), ""); }
  void string(std::string_view s) {
    std::fputc('"', out_);
    for (const char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', out_);
      std::fputc(c, out_);
    }
    std::fputc('"', out_);
  }

  std::FILE* out_;
  std::string closers_;  ///< one closing bracket per open level
  bool first_ = true;
};

}  // namespace slocal
