// The counter structs' field lists (src/util/fields.hpp): each lists every
// declared member exactly once, operator+= follows the merge rules, and the
// renderings walk the list in order.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/discover/discover.hpp"
#include "src/re/re_cache.hpp"
#include "src/re/round_elimination.hpp"
#include "src/serve/server.hpp"
#include "src/util/fields.hpp"

namespace slocal {
namespace {

/// Converts to any member type, so `T{AnyField{}, ...}` compiles exactly
/// when T has at least that many members.
struct AnyField {
  template <typename T>
  constexpr operator T() const {
    return T{};
  }
};

template <std::size_t>
using AnyFieldAt = AnyField;

template <typename T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{AnyFieldAt<I>{}...}; };
}

/// Number of members of the aggregate T.
template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

/// Field-list names, failing on a member listed twice or a repeated name.
template <typename Stats>
std::vector<std::string> listed_names() {
  std::vector<std::string> names;
  std::set<std::string> unique_names;
  std::set<std::size_t> offsets;
  const Stats probe{};
  Stats::for_each_field([&](std::string_view name, auto member, Merge) {
    names.emplace_back(name);
    EXPECT_TRUE(unique_names.insert(names.back()).second) << "name listed twice: " << name;
    const auto* base = reinterpret_cast<const char*>(&probe);
    const auto* at = reinterpret_cast<const char*>(&(probe.*member));
    EXPECT_TRUE(offsets.insert(static_cast<std::size_t>(at - base)).second)
        << "member listed twice: " << name;
  });
  return names;
}

template <typename Stats>
void expect_every_member_listed(const char* type) {
  static_assert(std::is_aggregate_v<Stats>);
  EXPECT_EQ(listed_names<Stats>().size(), member_count<Stats>())
      << type << ": a declared member is missing from for_each_field";
}

TEST(StatsFields, EveryDeclaredMemberIsListedOnce) {
  expect_every_member_listed<REStats>("REStats");
  expect_every_member_listed<discover::DiscoverStats>("DiscoverStats");
  expect_every_member_listed<serve::ServeCounters>("ServeCounters");
  expect_every_member_listed<RECacheCounters>("RECacheCounters");
}

TEST(StatsFields, MemberCountSeesEveryMember) {
  // The check above is only as good as member_count.
  struct Three {
    int a = 0;
    double b = 0.0;
    bool c = false;
  };
  EXPECT_EQ(member_count<Three>(), 3u);
}

TEST(StatsFields, REStatsPlusEqualsSumsEveryCounterAndMaxesThreads) {
  // Field k of `a` holds k + 1 and of `b` holds 100 * (k + 1); threads_used
  // alone must come out as the max, every other field as the sum.
  REStats a;
  REStats b;
  std::size_t k = 0;
  REStats::for_each_field([&](std::string_view, auto member, Merge) {
    using T = std::remove_cvref_t<decltype(a.*member)>;
    a.*member = static_cast<T>(k + 1);
    b.*member = static_cast<T>(100 * (k + 1));
    ++k;
  });
  b.threads_used = 2;  // smaller than a's, so max != sum and max != rhs
  const std::size_t a_threads = a.threads_used;
  a += b;

  k = 0;
  REStats::for_each_field([&](std::string_view name, auto member, Merge merge) {
    const double got = static_cast<double>(a.*member);
    if (name == "threads_used") {
      EXPECT_EQ(merge, Merge::kMax);
      EXPECT_EQ(got, static_cast<double>(a_threads)) << name;
    } else {
      EXPECT_EQ(merge, Merge::kSum) << name;
      EXPECT_EQ(got, static_cast<double>(101 * (k + 1))) << name;
    }
    ++k;
  });
  EXPECT_EQ(k, member_count<REStats>());
}

TEST(StatsFields, LineRenderingFollowsTheFieldList) {
  REStats s;
  s.dfs_nodes = 7;
  s.threads_used = 3;
  s.total_ms = 1.5;
  const std::string line = s.to_string();
  EXPECT_EQ(line.rfind("dfs_nodes=7 partials_deduped=0 ", 0), 0u) << line;
  EXPECT_NE(line.find(" threads_used=3 "), std::string::npos) << line;
  EXPECT_EQ(line.substr(line.size() - 14), " total_ms=1.50") << line;

  std::string keys;
  for (const std::string& name : listed_names<REStats>()) keys += name + "=";
  std::string rendered_keys;
  for (std::size_t pos = 0; pos < line.size();) {
    const std::size_t eq = line.find('=', pos);
    rendered_keys += line.substr(pos, eq + 1 - pos);
    const std::size_t space = line.find(' ', eq);
    pos = space == std::string::npos ? line.size() : space + 1;
  }
  EXPECT_EQ(rendered_keys, keys);

  discover::DiscoverStats d;
  d.resumed = true;
  d.expansions = 4;
  const std::string discover_line = d.to_string();
  EXPECT_EQ(discover_line.rfind("expansions=4 frontier_peak=0 ", 0), 0u) << discover_line;
  EXPECT_EQ(discover_line.substr(discover_line.size() - 10), " resumed=1") << discover_line;
}

}  // namespace
}  // namespace slocal
