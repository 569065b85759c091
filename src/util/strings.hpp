// Small string utilities shared by the problem parser/printer, report
// formatting in benches, and the numeric flags of the command-line tools.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace slocal {

/// Split on any character in `delims`, dropping empty pieces.
std::vector<std::string> split(std::string_view text, std::string_view delims = " \t");

/// Split into lines (on '\n'), dropping empty/whitespace-only lines.
std::vector<std::string> split_lines(std::string_view text);

/// Strict unsigned decimal: one or more digits and nothing else — no sign,
/// no whitespace, no overflow. False leaves *out untouched.
bool parse_u64(std::string_view text, std::uint64_t* out);

std::string trim(std::string_view text);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Left-pad with spaces to the given width (for plain-text tables).
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

}  // namespace slocal
