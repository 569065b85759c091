#include <gtest/gtest.h>

#include "src/formalism/configuration.hpp"
#include "src/formalism/constraint.hpp"
#include "src/formalism/parser.hpp"
#include "src/formalism/problem.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"

namespace slocal {
namespace {

TEST(Configuration, CanonicalOrder) {
  const Configuration a{2, 0, 1};
  const Configuration b{0, 1, 2};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], 0);
}

TEST(Configuration, Count) {
  const Configuration c{1, 1, 3, 1};
  EXPECT_EQ(c.count(1), 3u);
  EXPECT_EQ(c.count(3), 1u);
  EXPECT_EQ(c.count(2), 0u);
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(0));
}

TEST(Configuration, Submultiset) {
  const Configuration big{0, 1, 1, 2};
  EXPECT_TRUE(Configuration({1, 1}).submultiset_of(big));
  EXPECT_TRUE(Configuration({0, 2}).submultiset_of(big));
  EXPECT_FALSE(Configuration({1, 1, 1}).submultiset_of(big));
  EXPECT_FALSE(Configuration({3}).submultiset_of(big));
  EXPECT_TRUE(Configuration{}.submultiset_of(big));
}

TEST(Configuration, Replacement) {
  const Configuration c{0, 0, 1};
  EXPECT_EQ(c.with_replaced(0, 2, 1), Configuration({0, 2, 1}));
  EXPECT_EQ(c.with_replaced(0, 2, 2), Configuration({2, 2, 1}));
  EXPECT_EQ(c.with_added(3), Configuration({0, 0, 1, 3}));
}

TEST(Constraint, AddAndMembership) {
  Constraint c(2);
  EXPECT_TRUE(c.add(Configuration{0, 1}));
  EXPECT_FALSE(c.add(Configuration{1, 0}));  // same multiset
  EXPECT_TRUE(c.contains(Configuration{0, 1}));
  EXPECT_FALSE(c.contains(Configuration{0, 0}));
  EXPECT_EQ(c.size(), 1u);
}

TEST(Constraint, CondensedExpansion) {
  Constraint c(2);
  c.add_condensed({{0, 1}, {2, 3}});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_TRUE(c.contains(Configuration{1, 2}));
}

TEST(Constraint, CondensedDeduplicatesMultisets) {
  Constraint c(2);
  c.add_condensed({{0, 1}, {0, 1}});
  // Products: 00, 01, 10, 11 -> multisets {0,0}, {0,1}, {1,1}.
  EXPECT_EQ(c.size(), 3u);
}

TEST(Constraint, Extendable) {
  Constraint c(3);
  c.add(Configuration{0, 1, 2});
  c.add(Configuration{0, 0, 0});
  EXPECT_TRUE(c.extendable(Configuration{0, 1}));
  EXPECT_TRUE(c.extendable(Configuration{0, 0}));
  EXPECT_FALSE(c.extendable(Configuration{1, 1}));
  EXPECT_TRUE(c.extendable(Configuration{}));
  EXPECT_FALSE(c.extendable(Configuration{0, 1, 2, 2}));
}

TEST(Constraint, UsedLabels) {
  Constraint c(2);
  c.add(Configuration{0, 3});
  EXPECT_EQ(c.used_labels(), (std::vector<Label>{0, 3}));
}

TEST(Constraint, ExtensionIndexMatchesLinearScan) {
  Constraint c(4);
  c.add_condensed({{0, 1}, {0, 1}, {2, 3}, {2}});
  c.add(Configuration{0, 0, 0, 0});
  // Every multiset of size <= 5 over labels {0..3} answers identically
  // through a walk of the automaton and through extendable()'s linear scan.
  const auto expect_agreement = [&c] {
    const auto automaton = c.automaton();
    ASSERT_NE(automaton, nullptr);
    std::vector<Label> pick;
    auto sweep = [&](auto&& self, Label min_label) -> void {
      EXPECT_EQ(automaton->walk(pick) != SubmultisetAutomaton::kDead,
                c.extendable(Configuration(pick)))
          << "size " << pick.size();
      if (pick.size() == 5) return;
      for (Label l = min_label; l < 4; ++l) {
        pick.push_back(l);
        self(self, l);
        pick.pop_back();
      }
    };
    sweep(sweep, 0);
  };
  expect_agreement();
  // An automaton taken after add() sees the new member; one taken before
  // is a snapshot of the members it was built from.
  const auto before = c.automaton();
  c.add(Configuration{1, 3, 3, 3});
  EXPECT_EQ(before->walk(std::vector<Label>{3, 3}), SubmultisetAutomaton::kDead);
  EXPECT_NE(c.automaton()->walk(std::vector<Label>{3, 3}), SubmultisetAutomaton::kDead);
  expect_agreement();
}

TEST(Constraint, ExtensionAutomatonStatesAreTheSubmultisets) {
  Constraint c(3);
  c.add(Configuration{0, 1, 2});  // 8 sub-multisets
  c.add(Configuration{0, 0, 0});  // 4, sharing {} and {0}
  const auto automaton = c.automaton();
  ASSERT_NE(automaton, nullptr);
  const SubmultisetAutomaton& a = *automaton;
  EXPECT_EQ(a.size(), 10u);
  using S = SubmultisetAutomaton::State;
  constexpr S kDead = SubmultisetAutomaton::kDead;
  // A state is a multiset: reading order does not matter.
  EXPECT_EQ(a.next(a.next(a.root(), 2), 0), a.next(a.next(a.root(), 0), 2));
  EXPECT_NE(a.walk(std::vector<Label>{2, 1, 0}), kDead);
  EXPECT_EQ(a.walk(std::vector<Label>{1, 1}), kDead);
  // Members are full: every transition out of one is dead, dead is a sink,
  // and labels beyond the table are dead.
  for (Label l = 0; l < 4; ++l) {
    EXPECT_EQ(a.next(a.walk(std::vector<Label>{0, 0, 0}), l), kDead);
    EXPECT_EQ(a.next(kDead, l), kDead);
  }
  EXPECT_EQ(a.next(a.root(), 200), kDead);

  const Constraint empty(2);
  const auto none = empty.automaton();
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->root(), kDead);
  EXPECT_FALSE(empty.extendable(Configuration{}));
}

TEST(Constraint, ExtensionIndexRespectsEntryCap) {
  Constraint c(3);
  c.add(Configuration{0, 1, 2});  // 8 sub-multisets
  EXPECT_EQ(c.automaton(/*max_entries=*/4), nullptr);
  // The linear scan still answers correctly.
  EXPECT_TRUE(c.extendable(Configuration{0, 2}));
  const auto fresh = c.automaton(/*max_entries=*/8);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->size(), 8u);
}

TEST(Constraint, ExtensionIndexChargesTableWidthAgainstEntryCap) {
  // One member, 4 sub-multisets: its table fits a cap of 8 entries while
  // the labels are small, but not once the largest label makes each row of
  // the table 200 cells wide.
  Constraint narrow(2);
  narrow.add(Configuration{0, 1});
  EXPECT_NE(narrow.automaton(/*max_entries=*/8), nullptr);
  Constraint wide(2);
  wide.add(Configuration{0, 199});
  EXPECT_EQ(wide.automaton(/*max_entries=*/8), nullptr);
  EXPECT_TRUE(wide.extendable(Configuration{199}));

  // Every triple over 140 labels: about 3.7M projected sub-multisets fit
  // the default entry cap, a table 140 labels wide does not.
  std::vector<Label> labels(140);
  for (std::size_t l = 0; l < labels.size(); ++l) labels[l] = static_cast<Label>(l);
  Constraint triples(3);
  triples.add_condensed({labels, labels, labels});
  EXPECT_EQ(triples.automaton(), nullptr);
}

TEST(Parser, ParsesMaximalMatchingNotation) {
  const auto p = parse_problem("mm", "M O^2\nP^3", "M [O P]^2\nO^3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->white_degree(), 3u);
  EXPECT_EQ(p->black_degree(), 3u);
  EXPECT_EQ(p->white().size(), 2u);
  EXPECT_EQ(p->black().size(), 4u);  // M + {OO, OP, PP}
  EXPECT_EQ(p->alphabet_size(), 3u);
}

TEST(Parser, MatchesProgrammaticMaximalMatching) {
  const auto parsed = parse_problem("MM_3", "M O^2\nP^3", "M [O P]^2\nO^3");
  ASSERT_TRUE(parsed.has_value());
  const Problem built = make_maximal_matching_problem(3);
  EXPECT_TRUE(equivalent_up_to_renaming(*parsed, built).has_value());
}

TEST(Parser, RejectsSizeMismatch) {
  ParseError err;
  EXPECT_FALSE(parse_problem("bad", "A A\nB", "A A", &err).has_value());
  EXPECT_FALSE(err.message.empty());
}

TEST(Parser, RejectsMalformedBrackets) {
  ParseError err;
  EXPECT_FALSE(parse_problem("bad", "[A B", "A", &err).has_value());
}

TEST(Parser, RejectsZeroExponent) {
  ParseError err;
  EXPECT_FALSE(parse_problem("bad", "A^0 B", "A", &err).has_value());
}

TEST(Parser, RoundTripThroughFormat) {
  const Problem p = make_matching_problem(4, 1, 1);
  const std::string text = format_problem(p);
  EXPECT_NE(text.find("white:"), std::string::npos);
  EXPECT_NE(text.find("black:"), std::string::npos);
  // Re-parse the formatted constraints.
  const auto white_begin = text.find("white:\n") + 7;
  const auto black_begin = text.find("black:\n");
  const auto reparsed = parse_problem(
      "rt", text.substr(white_begin, black_begin - white_begin),
      text.substr(black_begin + 7));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(equivalent_up_to_renaming(p, *reparsed).has_value());
}

TEST(Problem, EquivalenceUpToRenamingPositive) {
  const auto a = parse_problem("a", "A B", "A A\nB B");
  const auto b = parse_problem("b", "Y X", "X X\nY Y");
  ASSERT_TRUE(a && b);
  const auto witness = equivalent_up_to_renaming(*a, *b);
  ASSERT_TRUE(witness.has_value());
}

TEST(Problem, EquivalenceUpToRenamingNegative) {
  const auto a = parse_problem("a", "A B", "A A");
  const auto b = parse_problem("b", "X Y", "X Y");
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(equivalent_up_to_renaming(*a, *b).has_value());
}

TEST(Problem, EquivalenceDetectsAsymmetricRoles) {
  // Same shape but white/black roles differ.
  const auto a = parse_problem("a", "A A\nB B", "A B");
  const auto b = parse_problem("b", "A B", "A A\nB B");
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(equivalent_up_to_renaming(*a, *b).has_value());
}

TEST(Problem, DropUnusedLabels) {
  LabelRegistry reg;
  const Label a = reg.intern("A");
  reg.intern("junk");
  const Label b = reg.intern("B");
  Constraint white(1);
  white.add(Configuration{a});
  Constraint black(1);
  black.add(Configuration{b});
  const Problem p("p", reg, white, black);
  const Problem cleaned = drop_unused_labels(p);
  EXPECT_EQ(cleaned.alphabet_size(), 2u);
  EXPECT_TRUE(cleaned.registry().find("A").has_value());
  EXPECT_FALSE(cleaned.registry().find("junk").has_value());
}

TEST(MatchingFamily, DefinitionSizes) {
  // Π_Δ(x,y) has three condensed white lines; with x'=Δ'-1-y the middle one
  // collapses as in Section 4.2.
  const Problem p = make_matching_problem(5, 1, 2);
  EXPECT_EQ(p.white_degree(), 5u);
  EXPECT_EQ(p.alphabet_size(), 5u);
  EXPECT_EQ(p.white().size(), 3u);
  // White configurations from Definition 4.2 (Δ=5, x=1, y=2):
  const auto& reg = p.registry();
  const Label m = *reg.find("M"), o = *reg.find("O"), px = *reg.find("P"),
              x = *reg.find("X"), z = *reg.find("Z");
  EXPECT_TRUE(p.white().contains(Configuration{x, m, o, o, o}));
  EXPECT_TRUE(p.white().contains(Configuration{x, x, o, px, px}));
  EXPECT_TRUE(p.white().contains(Configuration{x, x, z, o, o}));
}

TEST(MatchingFamily, SequenceLength) {
  EXPECT_EQ(matching_sequence_length(8, 0, 1), 6u);
  EXPECT_EQ(matching_sequence_length(8, 2, 2), 1u);
  EXPECT_EQ(matching_sequence_length(4, 3, 1), 0u);
}

}  // namespace
}  // namespace slocal
