// A constraint: a set of same-size configurations (C_W or C_B, Section 2).
//
// Supports condensed configurations ([AB][CD]E regular-expression style):
// a vector of per-position alternative sets expands to the product set.
// Also provides the queries the solvers need: exact membership, "is this
// partial multiset extendable to a member?" by a linear scan, and the
// sub-multiset automaton that the search engines and SAT encoders each build
// and walk. A Constraint is a plain value: it caches nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/formalism/configuration.hpp"
#include "src/formalism/label.hpp"
#include "src/util/bitset.hpp"

namespace slocal {

class EpochMarks;

/// Every sub-multiset of every member of a constraint, as a deterministic
/// automaton over labels. States are the distinct sub-multisets, numbered
/// densely; next(s, l) is the state of s ⊎ {l}, or kDead when s ⊎ {l} lies
/// inside no member. kDead is an absorbing sink, so a walk stays live
/// exactly as long as the labels read so far extend to a member, and a live
/// state reached after as many labels as the constraint's degree is a
/// member. Search engines keep a
/// set of partial multisets as a vector of state ids: extending a partial,
/// testing it and deduplicating it are table lookups, with no Configuration
/// allocated or hashed.
class SubmultisetAutomaton {
 public:
  using State = std::uint32_t;
  static constexpr State kDead = 0;

  /// The empty multiset; kDead when the constraint has no members.
  State root() const { return root_; }

  State next(State s, Label l) const {
    return l < width_ ? next_[static_cast<std::size_t>(s) * width_ + l] : kDead;
  }

  /// The state reached from root() by reading `labels` in any order.
  State walk(std::span<const Label> labels) const;

  /// Transitions taken and duplicate states dropped by step_frontier().
  struct StepCounts {
    std::uint64_t steps = 0;
    std::uint64_t merged = 0;
  };

  /// The one frontier step of the choice searches: reads every label of
  /// `labels` from every state of `from` into `to` (cleared first), each
  /// distinct state once, with `seen` as scratch over state_bound() ids.
  /// Returns false at the first transition into kDead, i.e. as soon as some
  /// choice leaves the constraint; `to` is then partial. Adds the
  /// transitions taken (the failing one included) and the duplicates
  /// dropped onto `counts` when it is given.
  bool step_frontier(std::span<const State> from, SmallBitset labels, EpochMarks& seen,
                     std::vector<State>& to, StepCounts* counts = nullptr) const;

  /// Live states (sub-multisets, the empty one included).
  std::size_t size() const { return states_ - 1; }

  /// One past the largest state id: the length of a per-state scratch array.
  std::size_t state_bound() const { return states_; }

 private:
  friend class Constraint;

  State root_ = kDead;
  std::size_t width_ = 0;    // one past the largest member label
  std::size_t states_ = 1;   // kDead included
  std::vector<State> next_;  // states_ x width_, row-major
};

class Constraint {
 public:
  Constraint() = default;
  explicit Constraint(std::size_t degree) : degree_(degree) {}

  std::size_t degree() const { return degree_; }
  std::size_t size() const { return configs_.size(); }
  bool empty() const { return configs_.empty(); }

  /// Adds a configuration; must match degree(). Returns false on duplicates.
  bool add(Configuration c);

  /// Adds every expansion of a condensed configuration: position i may take
  /// any label in alternatives[i]. alternatives.size() must equal degree().
  /// Returns the number of configurations that were NOT already present —
  /// 0 means the line was entirely redundant (the parser uses this to
  /// reject duplicate configurations).
  std::size_t add_condensed(const std::vector<std::vector<Label>>& alternatives);

  bool contains(const Configuration& c) const { return configs_.contains(c); }

  /// True if some member of the constraint has `partial` as a sub-multiset:
  /// a linear scan, O(|members| * degree). This is the per-node pruning test
  /// of the backtracking solver, which stays an independent oracle for the
  /// engines that walk the automaton.
  bool extendable(const Configuration& partial) const;

  /// Default cap on the automaton's projected sub-multiset count.
  static constexpr std::size_t kMaxIndexEntries = std::size_t{1} << 22;

  /// A fresh sub-multiset automaton of the members, owned by the caller:
  /// round elimination, both relaxation searches and the SAT encoders each
  /// take one and walk it. nullptr when the projected sub-multiset count
  /// exceeds `max_entries`, or when the projected transition table
  /// (sub-multisets x one past the largest label) exceeds 4 cells per
  /// allowed entry.
  std::shared_ptr<const SubmultisetAutomaton> automaton(
      std::size_t max_entries = kMaxIndexEntries) const;

  /// All members, in unspecified but deterministic-per-build order.
  const std::unordered_set<Configuration>& members() const { return configs_; }

  /// Members sorted lexicographically (stable order for printing/tests).
  std::vector<Configuration> sorted_members() const;

  /// Set of labels that occur in at least one configuration.
  std::vector<Label> used_labels() const;

  std::string to_string(const LabelRegistry& reg) const;

  bool operator==(const Constraint& other) const {
    return degree_ == other.degree_ && configs_ == other.configs_;
  }

 private:
  std::size_t degree_ = 0;
  std::unordered_set<Configuration> configs_;
};

}  // namespace slocal
