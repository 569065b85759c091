// Counter structs that list their fields once.
//
// A counter struct (REStats, DiscoverStats, ServeCounters, RECacheCounters)
// declares, next to its members, a static `for_each_field(f)` that calls
// f("name", &S::member, Merge::kSum or kMax) once per field, in rendering
// order. Merging, the one-line `name=value` rendering and the bench JSON
// writer (bench/json_writer.hpp) walk that list instead of naming fields by
// hand; tests/stats_fields_test.cpp fails when a member is missing from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace slocal {

/// How a field combines when two runs' counters are merged.
enum class Merge : std::uint8_t {
  kSum,  ///< added up
  kMax,  ///< the larger one is kept (thread counts, peaks, flags)
};

/// into += from, field by field, under each field's merge rule.
template <typename Stats>
void merge_fields(Stats& into, const Stats& from) {
  Stats::for_each_field([&](std::string_view, auto member, Merge merge) {
    auto& lhs = into.*member;
    const auto& rhs = from.*member;
    using T = std::remove_cvref_t<decltype(lhs)>;
    lhs = merge == Merge::kMax ? std::max(lhs, rhs) : static_cast<T>(lhs + rhs);
  });
}

/// Appends ` <prefix><name>=<value>` for the first `limit` fields of `s`
/// (no leading space into an empty `out`): integers in decimal, flags as
/// 0/1, wall times with two decimals.
template <typename Stats>
void append_fields(std::string& out, const Stats& s, std::string_view prefix = {},
                   std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::size_t index = 0;
  Stats::for_each_field([&](std::string_view name, auto member, Merge) {
    if (index++ >= limit) return;
    char value[48];
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(s.*member)>>) {
      std::snprintf(value, sizeof(value), "%.2f", static_cast<double>(s.*member));
    } else {
      std::snprintf(value, sizeof(value), "%llu",
                    static_cast<unsigned long long>(s.*member));
    }
    if (!out.empty()) out += ' ';
    out.append(prefix).append(name).append("=").append(value);
  });
}

/// Every field of `s` as one `name=value name=value ...` line.
template <typename Stats>
std::string render_fields(const Stats& s) {
  std::string out;
  append_fields(out, s);
  return out;
}

}  // namespace slocal
