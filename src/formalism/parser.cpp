#include "src/formalism/parser.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/util/bitset.hpp"
#include "src/util/strings.hpp"

namespace slocal {

namespace {

void set_error(ParseError* error, std::string message, std::size_t line = 0,
               std::size_t column = 0) {
  if (error != nullptr) {
    error->message = std::move(message);
    error->line = line;
    error->column = column;
  }
}

/// Interns `name`, refusing to grow the alphabet past the SmallBitset
/// capacity (the whole formalism stack indexes per-label bitsets by Label).
std::optional<Label> intern_checked(LabelRegistry& registry, std::string_view name,
                                    std::size_t line, std::size_t column,
                                    ParseError* error) {
  if (const auto existing = registry.find(name)) return existing;
  if (registry.size() >= SmallBitset::kCapacity) {
    set_error(error,
              "alphabet larger than " + std::to_string(SmallBitset::kCapacity) +
                  " labels (at label '" + std::string(name) + "')",
              line, column);
    return std::nullopt;
  }
  return registry.intern(name);
}

/// One parsed token: alternative labels and a repeat count.
struct Token {
  std::vector<Label> alternatives;
  std::size_t repeat = 1;
};

/// Parses "NAME", "NAME^k", "[A B ...]", "[A B ...]^k". Returns nullopt on
/// malformed syntax. Advances `pos` past the token.
std::optional<Token> parse_token(std::string_view text, std::size_t& pos,
                                 std::size_t line_number, LabelRegistry& registry,
                                 ParseError* error) {
  Token tok;
  const std::size_t token_column = pos + 1;
  if (text[pos] == '[') {
    const std::size_t close = text.find(']', pos);
    if (close == std::string_view::npos) {
      set_error(error, "unterminated '['", line_number, token_column);
      return std::nullopt;
    }
    const std::string_view inner = text.substr(pos + 1, close - pos - 1);
    if (inner.find('[') != std::string_view::npos) {
      set_error(error, "nested '[' inside alternatives", line_number, token_column);
      return std::nullopt;
    }
    for (const auto& name : split(inner)) {
      const auto label = intern_checked(registry, name, line_number, token_column, error);
      if (!label) return std::nullopt;
      tok.alternatives.push_back(*label);
    }
    if (tok.alternatives.empty()) {
      set_error(error, "empty alternatives '[]'", line_number, token_column);
      return std::nullopt;
    }
    pos = close + 1;
  } else {
    std::size_t end = pos;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end])) &&
           text[end] != '^' && text[end] != '[' && text[end] != ']') {
      ++end;
    }
    if (end == pos) {
      set_error(error, "empty label name", line_number, token_column);
      return std::nullopt;
    }
    const auto label = intern_checked(registry, text.substr(pos, end - pos),
                                      line_number, token_column, error);
    if (!label) return std::nullopt;
    tok.alternatives.push_back(*label);
    pos = end;
  }
  if (pos < text.size() && text[pos] == '^') {
    const std::size_t caret_column = pos + 1;
    ++pos;
    std::size_t end = pos;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    std::size_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data() + pos, text.data() + end, value);
    if (ec != std::errc{} || value == 0) {
      set_error(error, "bad exponent after '^'", line_number, caret_column);
      return std::nullopt;
    }
    tok.repeat = value;
    pos = end;
  }
  return tok;
}

/// Parses one configuration line into per-position alternatives.
std::optional<std::vector<std::vector<Label>>> parse_line(std::string_view line,
                                                          std::size_t line_number,
                                                          LabelRegistry& registry,
                                                          ParseError* error) {
  std::vector<std::vector<Label>> positions;
  std::size_t pos = 0;
  while (pos < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
      continue;
    }
    if (line[pos] == ']') {
      set_error(error, "stray ']'", line_number, pos + 1);
      return std::nullopt;
    }
    const auto tok = parse_token(line, pos, line_number, registry, error);
    if (!tok) return std::nullopt;
    if (positions.size() + tok->repeat > 64) {
      set_error(error, "configuration longer than 64 positions", line_number, pos);
      return std::nullopt;
    }
    for (std::size_t r = 0; r < tok->repeat; ++r) positions.push_back(tok->alternatives);
  }
  if (positions.empty()) {
    set_error(error, "empty configuration line", line_number);
    return std::nullopt;
  }
  return positions;
}

/// Calls `body(line, line_number)` for every line of `text` (1-based,
/// counting from `first_line`, blank and comment lines skipped); stops and
/// returns false when body does.
bool for_each_config_line(std::string_view text, std::size_t first_line,
                          const std::function<bool(std::string_view, std::size_t)>& body) {
  std::size_t line_number = first_line;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const std::string line = trim(text.substr(start, end - start));
    if (!line.empty() && line[0] != '#') {
      if (!body(line, line_number)) return false;
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
    ++line_number;
  }
  return true;
}

}  // namespace

std::string ParseError::to_string() const {
  std::string out;
  if (line > 0) {
    out += "line " + std::to_string(line);
    if (column > 0) out += ", column " + std::to_string(column);
    out += ": ";
  }
  return out + message;
}

std::optional<Problem> load_problem_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ParseError parse_error;
  auto problem = parse_problem_text(path, buffer.str(), &parse_error);
  if (!problem) *error = "parse error: " + parse_error.to_string();
  return problem;
}

std::optional<Constraint> parse_constraint(std::string_view text,
                                           LabelRegistry& registry,
                                           ParseError* error,
                                           std::size_t first_line) {
  std::optional<Constraint> constraint;
  bool failed = false;
  for_each_config_line(text, first_line, [&](std::string_view line,
                                             std::size_t line_number) {
    const auto positions = parse_line(line, line_number, registry, error);
    if (!positions) {
      failed = true;
      return false;
    }
    if (!constraint) {
      constraint.emplace(positions->size());
    } else if (positions->size() != constraint->degree()) {
      set_error(error,
                "configuration size mismatch (got " +
                    std::to_string(positions->size()) + ", constraint has " +
                    std::to_string(constraint->degree()) + ")",
                line_number);
      failed = true;
      return false;
    }
    if (constraint->add_condensed(*positions) == 0) {
      set_error(error, "duplicate configuration (expands to nothing new)",
                line_number);
      failed = true;
      return false;
    }
    return true;
  });
  if (failed) return std::nullopt;
  if (!constraint) {
    set_error(error, "constraint has no configurations");
    return std::nullopt;
  }
  return constraint;
}

std::optional<Problem> parse_problem(std::string_view name,
                                     std::string_view white_text,
                                     std::string_view black_text,
                                     ParseError* error) {
  LabelRegistry registry;
  auto white = parse_constraint(white_text, registry, error);
  if (!white) return std::nullopt;
  auto black = parse_constraint(black_text, registry, error);
  if (!black) return std::nullopt;
  return Problem(std::string(name), std::move(registry), std::move(*white),
                 std::move(*black));
}

std::optional<Problem> parse_problem_text(std::string_view name,
                                          std::string_view text,
                                          ParseError* error) {
  // Locate the separator line "---" (must be a line of its own).
  std::size_t line_number = 1;
  std::size_t start = 0;
  std::size_t sep_begin = std::string_view::npos;
  std::size_t sep_end = 0;
  std::size_t sep_line = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    if (trim(text.substr(start, end - start)) == "---") {
      sep_begin = start;
      sep_end = nl == std::string_view::npos ? text.size() : nl + 1;
      sep_line = line_number;
      break;
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
    ++line_number;
  }
  if (sep_begin == std::string_view::npos) {
    set_error(error, "missing '---' separator between white and black");
    return std::nullopt;
  }
  LabelRegistry registry;
  auto white = parse_constraint(text.substr(0, sep_begin), registry, error, 1);
  if (!white) return std::nullopt;
  auto black =
      parse_constraint(text.substr(sep_end), registry, error, sep_line + 1);
  if (!black) return std::nullopt;
  return Problem(std::string(name), std::move(registry), std::move(*white),
                 std::move(*black));
}

std::string format_configuration(const Configuration& c, const LabelRegistry& reg) {
  std::string out;
  std::size_t i = 0;
  const auto labels = c.labels();
  while (i < labels.size()) {
    std::size_t j = i;
    while (j < labels.size() && labels[j] == labels[i]) ++j;
    if (!out.empty()) out += ' ';
    out += reg.name(labels[i]);
    if (j - i > 1) out += '^' + std::to_string(j - i);
    i = j;
  }
  return out;
}

std::string format_problem(const Problem& p) {
  std::string out = "# " + p.name() + "\nwhite:\n";
  for (const auto& c : p.white().sorted_members()) {
    out += "  " + format_configuration(c, p.registry()) + '\n';
  }
  out += "black:\n";
  for (const auto& c : p.black().sorted_members()) {
    out += "  " + format_configuration(c, p.registry()) + '\n';
  }
  return out;
}

}  // namespace slocal
