// Text format for problems in the black-white formalism.
//
// The grammar follows the paper's notation (and the Round Eliminator's):
// one configuration per line; tokens separated by spaces; a token is
//
//   NAME            one label
//   NAME^k          label repeated k times
//   [N1 N2 ...]     condensed position: any one of the alternatives
//   [N1 N2 ...]^k   k condensed positions
//
// Example (maximal matching, Appendix A, Δ = 3):
//   white:  "M O^2"      "P^3"
//   black:  "M [O P]^2"  "O^3"
//
// Lines starting with '#' are comments. Labels are interned in order of
// first appearance across white then black. Configurations are capped at
// 64 positions and alphabets at 64 labels (the SmallBitset label-universe
// bound); longer lines / larger alphabets are parse errors rather than
// memory bombs or downstream assertion failures.
//
// Malformed input NEVER asserts or aborts: every parse entry point returns
// nullopt and fills a structured ParseError carrying the 1-based line and
// column of the offending token (0 when the position is not meaningful,
// e.g. "constraint has no configurations").
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "src/formalism/problem.hpp"

namespace slocal {

struct ParseError {
  std::string message;
  std::size_t line = 0;    ///< 1-based line of the error; 0 = unknown/global
  std::size_t column = 0;  ///< 1-based column; 0 = whole line
  /// "line L, column C: message" (position parts omitted when 0).
  std::string to_string() const;
};

/// Parses a problem from white/black constraint texts (one configuration
/// per line). All lines in a constraint must expand to the same size.
/// Error line numbers are relative to the respective constraint text.
std::optional<Problem> parse_problem(std::string_view name,
                                     std::string_view white_text,
                                     std::string_view black_text,
                                     ParseError* error = nullptr);

/// Parses a whole problem file: white configurations, a separator line
/// "---", black configurations. Error line numbers are absolute within
/// `text`.
std::optional<Problem> parse_problem_text(std::string_view name,
                                          std::string_view text,
                                          ParseError* error = nullptr);

/// Reads and parses the problem file at `path` (named after the path). On
/// failure returns nullopt with "cannot open '<path>'" or "parse error:
/// <ParseError::to_string()>" in *error.
std::optional<Problem> load_problem_file(const std::string& path, std::string* error);

/// Parses a single constraint against an existing registry (labels are
/// interned into it). Returns nullopt and fills error on malformed input:
/// bad syntax, mismatched sizes, oversized alphabets, and duplicate
/// configurations (a line whose expansion adds nothing new). `first_line`
/// is the 1-based file line of the first line of `text`, for error
/// reporting.
std::optional<Constraint> parse_constraint(std::string_view text,
                                           LabelRegistry& registry,
                                           ParseError* error = nullptr,
                                           std::size_t first_line = 1);

/// Renders a problem in the same format parse_problem accepts
/// (compact: repeated labels use the ^k form).
std::string format_problem(const Problem& p);
std::string format_configuration(const Configuration& c, const LabelRegistry& reg);

}  // namespace slocal
