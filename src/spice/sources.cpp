#include "spice/sources.hpp"

#include <cmath>

#include "util/error.hpp"

namespace sable::spice {

Waveform Waveform::dc(double value) {
  Waveform w;
  w.kind = WaveformKind::kDc;
  w.dc_value = value;
  return w;
}

Waveform Waveform::pulse(double v1, double v2, double delay, double rise,
                         double fall, double width, double period) {
  SABLE_REQUIRE(period > 0.0 && rise > 0.0 && fall > 0.0,
                "pulse requires positive period and edge times");
  Waveform w;
  w.kind = WaveformKind::kPulse;
  w.v1 = v1;
  w.v2 = v2;
  w.delay = delay;
  w.rise = rise;
  w.fall = fall;
  w.width = width;
  w.period = period;
  return w;
}

Waveform Waveform::pwl(std::vector<std::pair<double, double>> points) {
  SABLE_REQUIRE(!points.empty(), "PWL requires at least one point");
  for (std::size_t i = 1; i < points.size(); ++i) {
    SABLE_REQUIRE(points[i].first > points[i - 1].first,
                  "PWL times must be strictly increasing");
  }
  Waveform w;
  w.kind = WaveformKind::kPwl;
  w.points = std::move(points);
  return w;
}

double Waveform::at(double t) const {
  switch (kind) {
    case WaveformKind::kDc:
      return dc_value;
    case WaveformKind::kPulse: {
      if (t < delay) return v1;
      const double local = std::fmod(t - delay, period);
      if (local < rise) return v1 + (v2 - v1) * (local / rise);
      if (local < rise + width) return v2;
      if (local < rise + width + fall) {
        return v2 + (v1 - v2) * ((local - rise - width) / fall);
      }
      return v1;
    }
    case WaveformKind::kPwl: {
      if (t <= points.front().first) return points.front().second;
      for (std::size_t i = 1; i < points.size(); ++i) {
        if (t <= points[i].first) {
          const auto& [t0, v0] = points[i - 1];
          const auto& [t1, v1p] = points[i];
          return v0 + (v1p - v0) * (t - t0) / (t1 - t0);
        }
      }
      return points.back().second;
    }
  }
  SABLE_UNREACHABLE("unreachable waveform kind");
}

}  // namespace sable::spice
