// Deterministic random number generation for reproducible experiments.
//
// xoshiro256** (Blackman & Vigna) — fast, high-quality, and identical output
// on every platform, which matters because the DPA experiments must be
// re-runnable bit-for-bit.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/error.hpp"
#include "util/ziggurat_tables.hpp"

namespace sable {

/// Deterministic 64-bit PRNG (xoshiro256**), seedable via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5ab1e5ab1e5ab1e5ULL);

  /// Uniform 64-bit value.
  std::uint64_t next() { return step(s_[0], s_[1], s_[2], s_[3]); }

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  /// A power-of-two bound 2^k takes the top k bits of one next(), the
  /// draw a single-S-box campaign's plaintext fill makes per trace
  /// (RoundSpec::fill_random_states).
  std::uint64_t below(std::uint64_t bound) {
    SABLE_ASSERT(bound > 0, "Rng::below requires a positive bound");
    if ((bound & (bound - 1)) == 0) {
      // Power of two: Lemire's rejection threshold (-bound % bound) is 0,
      // so no draw is ever rejected, and the high word of x * 2^k is the
      // top k bits of x. bound = 1 (k = 0) must not shift by 64.
      const std::uint64_t x = next();
      return bound == 1 ? 0 : x >> (64 - std::countr_zero(bound));
    }
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Standard normal variate: a 256-layer ziggurat (Marsaglia & Tsang,
  /// JSS 2000) over the committed tables of util/ziggurat_tables.hpp. It
  /// keeps no state of its own. About 99% of draws take this inline path:
  /// one next(), whose low 8 bits pick the layer and whose top 53 bits
  /// give a signed uniform u in [-1, 1); x = u * kX[layer] is accepted
  /// when it lies left of the layer's inner edge. The rest go to the
  /// out-of-line wedge and tail paths, the only ones that call libm.
  double gaussian() {
    const std::uint64_t bits = next();
    const double x = ziggurat_candidate(bits);
    const std::size_t layer = bits & 0xFF;
    if (std::fabs(x) < ziggurat::kX[layer + 1]) return x;
    return gaussian_outside(layer, x);
  }

  /// out[k] += sigma * gaussian() for k in [0, count), in ascending k:
  /// the same draws and the same arithmetic as that loop. The generator
  /// state stays in locals (registers) and goes back to the members only
  /// around the rare wedge and tail draws, whose out-of-line call would
  /// otherwise pin it in memory for the whole loop.
  void add_gaussian_noise(double* out, std::size_t count, double sigma);

  /// Bernoulli trial with probability p.
  bool chance(double p);

 private:
  // One xoshiro256** step of the state (s0, s1, s2, s3).
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                            std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    return result;
  }

  // The ziggurat's candidate of one draw: u * kX[layer], with the layer
  // in the low 8 bits and the signed uniform u in the top 53.
  static double ziggurat_candidate(std::uint64_t bits) {
    const double u =
        static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
        0x1.0p-52;
    return u * ziggurat::kX[bits & 0xFF];
  }

  // gaussian()'s candidate x of `layer` fell right of the layer's inner
  // edge: the tail (layer 0) or wedge test, and a fresh draw on reject.
  double gaussian_outside(std::size_t layer, double x);

  std::uint64_t s_[4];
};

}  // namespace sable
