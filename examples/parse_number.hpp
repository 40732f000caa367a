// Checked numeric command-line values for the examples and benches.
//
// The whole string must be one number, with no sign, no trailing
// characters and no overflow, so a typo fails loudly instead of turning
// "abc" into 0 or "12x" into 12. Integers also take a 0x hex prefix;
// floating-point values must be finite. On failure parse_number prints an
// error naming `flag` to stderr and returns false; the callers then exit
// with status 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <system_error>
#include <type_traits>

template <typename T>
bool parse_number(const char* flag, std::string_view text, T* out) {
  const char* first = text.data();
  const char* last = first + text.size();
  std::from_chars_result parsed{};
  if constexpr (std::is_floating_point_v<T>) {
    parsed = std::from_chars(first, last, *out);
  } else {
    int base = 10;
    if (text.size() > 2 && text[0] == '0' && (text[1] | 0x20) == 'x') {
      first += 2;
      base = 16;
    }
    parsed = std::from_chars(first, last, *out, base);
  }
  bool ok = !text.empty() && text[0] != '-' && parsed.ec == std::errc() &&
            parsed.ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(*out);
  if (!ok) {
    std::fprintf(stderr, "%s expects a non-negative number, got '%.*s'\n",
                 flag, static_cast<int>(text.size()), text.data());
  }
  return ok;
}
