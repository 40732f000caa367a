#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace sable {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

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
