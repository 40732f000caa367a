#include "util/strings.hpp"

#include <cmath>
#include <cstdio>

namespace sable {

std::string format_eng(double value, std::string_view unit) {
  static constexpr struct {
    double scale;
    const char* prefix;
  } kPrefixes[] = {{1e12, "T"}, {1e9, "G"}, {1e6, "M"},  {1e3, "k"},
                   {1.0, ""},   {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
                   {1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"}};
  const double mag = std::fabs(value);
  if (mag == 0.0) return "0" + std::string(unit);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale * 0.9995) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.4g%s%.*s", value / p.scale, p.prefix,
                    static_cast<int>(unit.size()), unit.data());
      return buf;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g%.*s", value,
                static_cast<int>(unit.size()), unit.data());
  return buf;
}

}  // namespace sable
