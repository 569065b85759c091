// A configuration: a fixed-size multiset of labels, stored canonically.
//
// Configurations are the elements of white/black constraints (Section 2).
// They are value types with a canonical (sorted) representation so that
// multiset equality is plain vector equality and they can key hash sets.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/formalism/label.hpp"

namespace slocal {

class Configuration {
 public:
  Configuration() = default;
  explicit Configuration(std::vector<Label> labels);
  Configuration(std::initializer_list<Label> labels);

  std::size_t size() const { return labels_.size(); }
  std::span<const Label> labels() const { return labels_; }
  Label operator[](std::size_t i) const { return labels_[i]; }

  /// Multiplicity of `l` in the multiset.
  std::size_t count(Label l) const;
  bool contains(Label l) const { return count(l) > 0; }

  /// True if this multiset is contained in `other` (with multiplicities).
  bool submultiset_of(const Configuration& other) const;

  /// Copy with `how_many` occurrences of `from` replaced by `to`
  /// (re-canonicalized). Precondition: count(from) >= how_many.
  Configuration with_replaced(Label from, Label to, std::size_t how_many) const;

  /// Copy with one extra label.
  Configuration with_added(Label l) const;

  /// Render using a registry ("X X M O").
  std::string to_string(const LabelRegistry& reg) const;

  bool operator==(const Configuration& other) const { return labels_ == other.labels_; }

  /// Lexicographic over the sorted labels, a shorter prefix first. Spelled
  /// out as a loop: the defaulted form inlines a memcmp into std::sort that
  /// GCC 12 flags with -Wstringop-overread.
  std::strong_ordering operator<=>(const Configuration& other) const {
    const std::size_t common = std::min(size(), other.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (labels_[i] != other.labels_[i]) return labels_[i] <=> other.labels_[i];
    }
    return size() <=> other.size();
  }

 private:
  std::vector<Label> labels_;  // sorted ascending
};

}  // namespace slocal

template <>
struct std::hash<slocal::Configuration> {
  std::size_t operator()(const slocal::Configuration& c) const noexcept {
    // FNV-1a over labels.
    std::size_t h = 14695981039346656037ULL;
    for (const auto l : c.labels()) {
      h ^= static_cast<std::size_t>(l);
      h *= 1099511628211ULL;
    }
    return h;
  }
};
