// Small string-formatting helpers shared by the table renderer, CSV writer
// and benchmark drivers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace dbs {

/// Formats a double with enough digits to round-trip (%.17g trimmed), for CSV.
std::string format_double(double v);

/// Formats a double with fixed decimal places, for human-readable tables.
std::string format_fixed(double v, int places);

/// Left-pads `s` with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads `s` with spaces to at least `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Joins strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Escapes `s` for the inside of a JSON string literal: a backslash goes
/// before each `"` and `\`, and each control character becomes a space.
std::string json_escape(std::string_view s);

}  // namespace dbs
