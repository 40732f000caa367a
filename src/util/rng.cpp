#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace sable {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::gaussian_outside(std::size_t layer, double x) {
  using ziggurat::kF;
  using ziggurat::kR;
  if (layer == 0) {
    // Beyond kR in the base strip: Marsaglia's tail method. 1 - uniform()
    // lies in (0, 1], so both logarithms are finite.
    double a = 0.0;
    double b = 0.0;
    do {
      a = -std::log(1.0 - uniform()) / kR;
      b = -std::log(1.0 - uniform());
    } while (b + b < a * a);
    return x < 0.0 ? -(kR + a) : kR + a;
  }
  // The wedge: accept x when a uniform height in the layer lies under f.
  const double y = kF[layer] + (kF[layer + 1] - kF[layer]) * uniform();
  if (y < std::exp(-0.5 * x * x)) return x;
  return gaussian();
}

void Rng::add_gaussian_noise(double* out, std::size_t count, double sigma) {
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t bits = step(s0, s1, s2, s3);
    double x = ziggurat_candidate(bits);
    const std::size_t layer = bits & 0xFF;
    if (std::fabs(x) >= ziggurat::kX[layer + 1]) [[unlikely]] {
      s_[0] = s0, s_[1] = s1, s_[2] = s2, s_[3] = s3;
      x = gaussian_outside(layer, x);
      s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    }
    out[k] += sigma * x;
  }
  s_[0] = s0, s_[1] = s1, s_[2] = s2, s_[3] = s3;
}

bool Rng::chance(double p) { return uniform() < p; }

}  // namespace sable
