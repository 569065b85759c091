#include "problem_files.hpp"

#include <fstream>
#include <sstream>

#include "src/formalism/parser.hpp"

namespace perfbench {

bool write_problem_file(const std::string& path, const slocal::Problem& problem) {
  std::string text;
  for (const slocal::Configuration& c : problem.white().sorted_members()) {
    text += slocal::format_configuration(c, problem.registry()) + "\n";
  }
  text += "---\n";
  for (const slocal::Configuration& c : problem.black().sorted_members()) {
    text += slocal::format_configuration(c, problem.registry()) + "\n";
  }
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

std::optional<slocal::Problem> load_problem_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return slocal::parse_problem_text(path, text.str());
}

}  // namespace perfbench
