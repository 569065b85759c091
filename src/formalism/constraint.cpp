#include "src/formalism/constraint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "src/util/epoch_marks.hpp"

namespace slocal {

bool Constraint::add(Configuration c) {
  assert(c.size() == degree_);
  return configs_.insert(std::move(c)).second;
}

std::size_t Constraint::add_condensed(const std::vector<std::vector<Label>>& alternatives) {
  assert(alternatives.size() == degree_);
  if (alternatives.empty()) {
    return add(Configuration{}) ? 1 : 0;
  }
  for (const auto& a : alternatives) {
    if (a.empty()) return 0;  // empty alternative set: empty product
  }
  // Positions with identical alternative sets are interchangeable in a
  // multiset: group them and enumerate non-decreasing choices per group.
  // This makes the expansion linear in the number of DISTINCT resulting
  // configurations (e.g. [A B]^50 expands to 51 configurations, not 2^50
  // tuples).
  std::vector<std::vector<Label>> groups;  // canonical alternative sets
  std::vector<std::size_t> multiplicity;
  for (auto a : alternatives) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    const auto it = std::find(groups.begin(), groups.end(), a);
    if (it == groups.end()) {
      groups.push_back(std::move(a));
      multiplicity.push_back(1);
    } else {
      ++multiplicity[static_cast<std::size_t>(it - groups.begin())];
    }
  }
  std::vector<Label> current;
  current.reserve(degree_);
  std::size_t inserted = 0;
  // DFS over groups; within a group choose a non-decreasing index sequence.
  auto expand = [&](auto&& self, std::size_t group, std::size_t slot,
                    std::size_t min_index) -> void {
    if (group == groups.size()) {
      if (configs_.insert(Configuration(current)).second) ++inserted;
      return;
    }
    if (slot == multiplicity[group]) {
      self(self, group + 1, 0, 0);
      return;
    }
    for (std::size_t i = min_index; i < groups[group].size(); ++i) {
      current.push_back(groups[group][i]);
      self(self, group, slot + 1, i);
      current.pop_back();
    }
  };
  expand(expand, 0, 0, 0);
  return inserted;
}

SubmultisetAutomaton::State SubmultisetAutomaton::walk(std::span<const Label> labels) const {
  State s = root_;
  for (const Label l : labels) s = next(s, l);
  return s;
}

bool SubmultisetAutomaton::step_frontier(std::span<const State> from, SmallBitset labels,
                                         EpochMarks& seen, std::vector<State>& to,
                                         StepCounts* counts) const {
  to.clear();
  seen.clear();
  std::uint64_t steps = 0;
  std::uint64_t merged = 0;
  bool live = true;
  for (std::size_t i = 0; i < from.size() && live; ++i) {
    for (std::uint64_t bits = labels.raw(); bits != 0; bits &= bits - 1) {
      const State q = next(from[i], static_cast<Label>(std::countr_zero(bits)));
      ++steps;
      if (q == kDead) {
        live = false;
        break;
      }
      if (seen.insert(q)) {
        to.push_back(q);
      } else {
        ++merged;
      }
    }
  }
  if (counts != nullptr) {
    counts->steps += steps;
    counts->merged += merged;
  }
  return live;
}

bool Constraint::extendable(const Configuration& partial) const {
  if (partial.size() > degree_) return false;
  return std::any_of(configs_.begin(), configs_.end(), [&](const Configuration& c) {
    return partial.submultiset_of(c);
  });
}

std::shared_ptr<const SubmultisetAutomaton> Constraint::automaton(
    std::size_t max_entries) const {
  using State = SubmultisetAutomaton::State;

  // Compress every member to (label, multiplicity) runs; labels are sorted,
  // so a run-order emission of counts is canonical. The projected state
  // count is an upper bound (sub-multisets shared between members dedupe):
  // a member with multiplicities m_1..m_k has prod(m_i + 1) sub-multisets.
  std::vector<std::vector<std::pair<Label, std::size_t>>> member_runs;
  member_runs.reserve(configs_.size());
  std::uint64_t projected = 0;
  std::size_t width = 0;
  for (const auto& c : configs_) {
    const auto labels = c.labels();
    auto& runs = member_runs.emplace_back();
    std::uint64_t per_member = 1;
    for (std::size_t i = 0; i < labels.size();) {
      std::size_t j = i;
      while (j < labels.size() && labels[j] == labels[i]) ++j;
      runs.emplace_back(labels[i], j - i);
      per_member *= static_cast<std::uint64_t>(j - i) + 1;
      width = std::max<std::size_t>(width, labels[i] + std::size_t{1});
      i = j;
    }
    projected += per_member;
    if (projected > max_entries) return nullptr;
  }
  // The table holds a row of `width` 4-byte cells per state. Each entry the
  // cap allows pays for kCellsPerEntry cells, so the table stays within
  // 16 * max_entries bytes however wide the alphabet, and the id map built
  // next stays within max_entries entries, as the hashed set it replaced.
  constexpr std::uint64_t kCellsPerEntry = 4;
  if (projected * width / kCellsPerEntry > max_entries) return nullptr;

  // A member's sub-multisets form a lattice (one count 0..m_i per run),
  // addressed here in mixed radix. Every transition s -> s ⊎ {l} of the
  // automaton stays inside the lattice of any member containing s ⊎ {l}, so
  // walking each lattice once numbers every state and fills every live
  // transition; the rest of the table stays kDead.
  auto index = std::make_shared<SubmultisetAutomaton>();
  index->width_ = width;
  index->next_.assign(width, SubmultisetAutomaton::kDead);  // the kDead row
  std::unordered_map<Configuration, State> ids;
  ids.reserve(static_cast<std::size_t>(projected));
  std::vector<State> lattice;
  std::vector<std::size_t> counts;
  std::vector<Label> chosen;
  chosen.reserve(degree_);
  for (const auto& runs : member_runs) {
    std::size_t points = 1;
    for (const auto& run : runs) points *= run.second + 1;
    lattice.resize(points);
    counts.assign(runs.size(), 0);
    for (std::size_t point = 0; point < points; ++point) {
      chosen.clear();
      for (std::size_t r = 0; r < runs.size(); ++r) {
        chosen.insert(chosen.end(), counts[r], runs[r].first);
      }
      const auto [it, fresh] =
          ids.try_emplace(Configuration(chosen), static_cast<State>(ids.size() + 1));
      if (fresh) index->next_.resize(index->next_.size() + width, SubmultisetAutomaton::kDead);
      lattice[point] = it->second;
      // Next point in mixed radix (run 0 is the least significant digit).
      for (std::size_t r = 0; r < runs.size() && ++counts[r] > runs[r].second; ++r) counts[r] = 0;
    }
    std::size_t stride = 1;
    for (const auto& [label, multiplicity] : runs) {
      for (std::size_t point = 0; point < points; ++point) {
        if ((point / stride) % (multiplicity + 1) == multiplicity) continue;  // run full
        index->next_[static_cast<std::size_t>(lattice[point]) * width + label] =
            lattice[point + stride];
      }
      stride *= multiplicity + 1;
    }
  }
  index->states_ = ids.size() + 1;
  if (!configs_.empty()) index->root_ = ids.at(Configuration{});
  return index;
}

std::vector<Configuration> Constraint::sorted_members() const {
  std::vector<Configuration> out(configs_.begin(), configs_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Label> Constraint::used_labels() const {
  std::vector<bool> seen(256, false);
  for (const auto& c : configs_) {
    for (const Label l : c.labels()) seen[l] = true;
  }
  std::vector<Label> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<Label>(i));
  }
  return out;
}

std::string Constraint::to_string(const LabelRegistry& reg) const {
  std::string out;
  for (const auto& c : sorted_members()) {
    out += c.to_string(reg);
    out += '\n';
  }
  return out;
}

}  // namespace slocal
