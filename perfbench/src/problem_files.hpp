// Problem files in the format `slocal_tool` and `slocal_serve` read: white
// configurations, a "---" line, black configurations. Workloads that hand
// the library files rather than in-memory problems write them in set-up.
#pragma once

#include <optional>
#include <string>

#include "src/formalism/problem.hpp"

namespace perfbench {

bool write_problem_file(const std::string& path, const slocal::Problem& problem);

/// Reads and parses a problem file; nullopt when it is missing or malformed.
std::optional<slocal::Problem> load_problem_file(const std::string& path);

}  // namespace perfbench
