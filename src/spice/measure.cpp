#include "spice/measure.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sable::spice {

double integrate(const std::vector<double>& time, const std::vector<double>& y,
                 double t0, double t1) {
  SABLE_REQUIRE(time.size() == y.size() && time.size() >= 2,
                "integrate requires matched sample arrays");
  double total = 0.0;
  for (std::size_t k = 1; k < time.size(); ++k) {
    const double ta = std::max(time[k - 1], t0);
    const double tb = std::min(time[k], t1);
    if (tb <= ta) continue;
    // Linear interpolation of y at the clipped endpoints.
    const double span = time[k] - time[k - 1];
    auto value_at = [&](double t) {
      const double w = span > 0.0 ? (t - time[k - 1]) / span : 0.0;
      return y[k - 1] + (y[k] - y[k - 1]) * w;
    };
    total += 0.5 * (value_at(ta) + value_at(tb)) * (tb - ta);
  }
  return total;
}

double delivered_charge(const TranResult& result, const std::string& name,
                        double t0, double t1) {
  const auto& current = result.i(name);
  std::vector<double> minus(current.size());
  for (std::size_t k = 0; k < current.size(); ++k) minus[k] = -current[k];
  return integrate(result.time, minus, t0, t1);
}

double delivered_energy(const TranResult& result, const std::string& name,
                        double t0, double t1) {
  std::size_t src = result.source_names.size();
  for (std::size_t s = 0; s < result.source_names.size(); ++s) {
    if (result.source_names[s] == name) src = s;
  }
  SABLE_REQUIRE(src < result.source_names.size(),
                "no such source in results: " + name);
  // Power = (v+ - v-) * (-i). The TranResult does not retain terminal
  // node ids, so callers use sources referenced to ground (all supplies in
  // this library are); v+ is then the source's positive node voltage, which
  // equals the forced waveform — recover it from the node sharing the name
  // convention "<name>" used by the assemblers, else fall back to charge
  // integration by the caller.
  const auto& current = result.branch_current[src];
  const auto& vpos = result.v(name);  // assemblers name the node as the source
  std::vector<double> power(current.size());
  for (std::size_t k = 0; k < current.size(); ++k) {
    power[k] = vpos[k] * (-current[k]);
  }
  return integrate(result.time, power, t0, t1);
}

double peak_delivered_current(const TranResult& result,
                              const std::string& name, double t0, double t1) {
  const auto& current = result.i(name);
  double peak = 0.0;
  for (std::size_t k = 0; k < result.time.size(); ++k) {
    if (result.time[k] < t0 || result.time[k] > t1) continue;
    peak = std::max(peak, -current[k]);
  }
  return peak;
}

}  // namespace sable::spice
