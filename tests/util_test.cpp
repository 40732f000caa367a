// Tests for utility primitives: RNG determinism and distributions, string
// helpers, and error types.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/ziggurat_tables.hpp"

namespace sable {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

// The generator as it was before next() and below() moved inline and
// below() gained its power-of-two path: splitmix64 seeding, xoshiro256**
// and Lemire's rejection for every bound. Campaign plaintext streams are
// recorded in corpora and checkpoints, so the new code must reproduce
// this one draw for draw.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) {
    for (auto& s : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  std::uint64_t below(std::uint64_t bound) {
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

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

TEST(RngTest, BelowMatchesTheReferenceStreamDrawForDraw) {
  // Powers of two (1 included) take the fast path, 6 the rejection loop;
  // interleaving them also pins that both consume the same draws.
  const std::uint64_t bounds[] = {1, 2, 16, 64, 256, 6};
  Rng rng(0xC0FFEE);
  ReferenceRng reference(0xC0FFEE);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
    for (const std::uint64_t bound : bounds) {
      if (rng.below(bound) != reference.below(bound)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(rng.next(), reference.next());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMomentsKsAndTailAtTenMillionDraws) {
  // 10^7 ziggurat draws against the standard normal. Each bound is five
  // standard errors of its statistic at this n: mean 1/sqrt(n), variance
  // sqrt(2/n), skewness sqrt(6/n), excess kurtosis sqrt(24/n).
  constexpr std::size_t n = 10'000'000;
  Rng rng(13);
  std::vector<double> draws(n);
  for (double& g : draws) g = rng.gaussian();
  long double sum = 0.0L;
  for (double g : draws) sum += g;
  const long double mean = sum / n;
  long double m2 = 0.0L;
  long double m3 = 0.0L;
  long double m4 = 0.0L;
  std::size_t beyond_4 = 0;
  for (double g : draws) {
    const long double d = g - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
    if (std::fabs(g) > 4.0) ++beyond_4;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  const double se = 1.0 / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(static_cast<double>(mean), 0.0, 5 * se);
  EXPECT_NEAR(static_cast<double>(m2), 1.0, 5 * std::sqrt(2.0) * se);
  EXPECT_NEAR(static_cast<double>(m3 / std::pow(m2, 1.5L)), 0.0,
              5 * std::sqrt(6.0) * se);
  EXPECT_NEAR(static_cast<double>(m4 / (m2 * m2) - 3.0L), 0.0,
              5 * std::sqrt(24.0) * se);

  // Mass beyond 4 sigma, 2 * Phi(-4) = 6.334e-5: it lies past the base
  // strip's edge kR = 3.654, so only the tail path produces it. Five
  // binomial standard errors.
  const double p4 = std::erfc(4.0 / std::sqrt(2.0));
  EXPECT_NEAR(p4, 6.334e-5, 1e-8);
  const double tail = static_cast<double>(beyond_4) / n;
  EXPECT_NEAR(tail, p4, 5 * std::sqrt(p4 / n));

  // Kolmogorov–Smirnov against Phi; 1.95 / sqrt(n) is the 0.1% critical
  // value.
  std::sort(draws.begin(), draws.end());
  double d_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 0.5 * std::erfc(-draws[i] / std::sqrt(2.0));
    d_max = std::max({d_max, static_cast<double>(i + 1) / n - phi,
                      phi - static_cast<double>(i) / n});
  }
  EXPECT_LT(d_max, 1.95 * se);
}

TEST(RngTest, BatchedGaussianNoiseMatchesTheLoopDrawForDraw) {
  // add_gaussian_noise must be `out[k] += sigma * gaussian()` over k, draw
  // for draw and bit for bit, including the out-of-line wedge and tail
  // draws, and leave the generator where the loop leaves it. Ragged
  // calls cover the empty and one-element cases between long ones.
  constexpr std::size_t n = 1'000'000;
  const double sigma = 0.37;
  std::vector<double> want(n);
  for (std::size_t k = 0; k < n; ++k) want[k] = 1e-3 * static_cast<double>(k);
  std::vector<double> got = want;
  Rng loop(0xBA7C4);
  Rng batched(0xBA7C4);
  // Which path each draw's first candidate takes, read off a copy of the
  // loop's generator ahead of each gaussian().
  std::size_t tails = 0;
  std::size_t wedges = 0;
  for (std::size_t k = 0; k < n; ++k) {
    Rng peek = loop;
    const std::uint64_t bits = peek.next();
    const std::size_t layer = bits & 0xFF;
    const double u =
        static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
        0x1.0p-52;
    if (std::fabs(u * ziggurat::kX[layer]) >= ziggurat::kX[layer + 1]) {
      ++(layer == 0 ? tails : wedges);
    }
    want[k] += sigma * loop.gaussian();
  }
  const std::size_t counts[] = {0, 1, 4095, 1, 0, 500'000, 3};
  std::size_t start = 0;
  for (const std::size_t count : counts) {
    batched.add_gaussian_noise(got.data() + start, count, sigma);
    start += count;
  }
  batched.add_gaussian_noise(got.data() + start, n - start, sigma);
  EXPECT_GT(tails, 0u);
  EXPECT_GT(wedges, 0u);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::bit_cast<std::uint64_t>(got[k]) !=
        std::bit_cast<std::uint64_t>(want[k])) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(batched.next(), loop.next());
}

TEST(ZigguratTest, TablesMatchTheLongDoubleRecurrence) {
  // An independent recomputation of util/ziggurat_tables.hpp in long
  // double from R and V alone (the recurrence in that header's comment).
  using ziggurat::kF;
  using ziggurat::kR;
  using ziggurat::kV;
  using ziggurat::kX;
  const long double r = 3.6541528853610088L;
  const long double v = 0.00492867323399L;
  EXPECT_EQ(kR, static_cast<double>(r));
  EXPECT_EQ(kV, static_cast<double>(v));
  const auto f = [](long double x) { return std::exp(-x * x / 2); };
  long double x[257];
  long double y[257];
  x[1] = r;
  y[1] = f(r);
  x[0] = v / y[1];
  y[0] = f(x[0]);
  for (int i = 1; i < 255; ++i) {
    y[i + 1] = y[i] + v / x[i];
    x[i + 1] = std::sqrt(-2 * std::log(y[i + 1]));
  }
  x[256] = 0;
  y[256] = 1;
  const auto ulps = [](long double exact, double committed) {
    const double ulp = std::nextafter(committed, HUGE_VAL) - committed;
    return static_cast<double>(std::fabs(exact - committed) / ulp);
  };
  for (int i = 0; i <= 256; ++i) {
    EXPECT_LE(ulps(x[i], kX[i]), 2.0) << "kX[" << i << "]";
    EXPECT_LE(ulps(y[i], kF[i]), 2.0) << "kF[" << i << "]";
  }

  // Every layer has area V. The base strip is the rectangle [0, R) x
  // [0, f(R)) plus the tail beyond R. R and V carry 12 to 17 digits, so
  // the recurrence reaches f = 1 only to about 2e-11: the top layer,
  // closed at kF[256] = 1 by convention, keeps its area to 1e-8.
  const double tail =
      std::sqrt(std::acos(-1.0) / 2) * std::erfc(kR / std::sqrt(2.0));
  EXPECT_NEAR(kR * kF[1] + tail, kV, 1e-10 * kV);
  EXPECT_NEAR(kX[0] * kF[1], kV, 1e-12 * kV);
  for (int i = 1; i < 255; ++i) {
    EXPECT_NEAR(kX[i] * (kF[i + 1] - kF[i]), kV, 1e-12 * kV) << i;
  }
  EXPECT_NEAR(kX[255] * (kF[256] - kF[255]), kV, 1e-8 * kV);
}

TEST(StringsTest, FormatEng) {
  EXPECT_EQ(format_eng(19.32e-15, "F"), "19.32fF");
  EXPECT_EQ(format_eng(0.0, "A"), "0A");
  EXPECT_EQ(format_eng(1.8, "V"), "1.8V");
  EXPECT_EQ(format_eng(624.8e-6, "A"), "624.8uA");
}

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(
      [] { SABLE_REQUIRE(false, "precondition failed"); }(),
      InvalidArgument);
  EXPECT_NO_THROW([] { SABLE_REQUIRE(true, "fine"); }());
}

TEST(ErrorTest, HierarchyIsCatchable) {
  try {
    throw ParseError("bad token");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad token"), std::string::npos);
  }
}

}  // namespace
}  // namespace sable
