// Small string helpers shared across modules (printing netlists, tables).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sable {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Formats `value` in engineering notation with a unit ("19.32f" + "F").
std::string format_eng(double value, std::string_view unit);

}  // namespace sable
