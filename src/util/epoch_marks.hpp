// A set over the ids [0, n) that empties in O(1).
//
// An id is in the set when its mark equals the current epoch, so clear()
// is one increment (the marks are rewritten only when the epoch wraps).
// The search engines deduplicate automaton state ids and configuration
// indices with it in their inner loops, where a hash set would allocate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace slocal {

class EpochMarks {
 public:
  explicit EpochMarks(std::size_t n) : marks_(n, 0) {}

  /// Empties the set.
  void clear() {
    if (++epoch_ == 0) {  // wrapped: forget every old mark
      std::fill(marks_.begin(), marks_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Adds `id`; false when it was already in the set.
  bool insert(std::size_t id) {
    if (marks_[id] == epoch_) return false;
    marks_[id] = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> marks_;
  std::uint32_t epoch_ = 1;
};

}  // namespace slocal
