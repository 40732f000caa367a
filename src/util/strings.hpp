// Small string helpers shared across modules (printing netlists, tables).
#pragma once

#include <string>
#include <string_view>

namespace sable {

/// Formats `value` in engineering notation with a unit ("19.32f" + "F").
std::string format_eng(double value, std::string_view unit);

}  // namespace sable
