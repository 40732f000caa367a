#include "dpa/block_stats.hpp"

#include "util/error.hpp"

namespace sable {

namespace detail {

void require_block_pts(const std::uint64_t* counts,
                       std::size_t num_plaintexts) {
  for (std::size_t p = num_plaintexts; p < kBlockPts; ++p) {
    SABLE_REQUIRE(counts[p] == 0, "plaintext out of range");
  }
}

void block_histogram_scalar(const std::uint8_t* pts, const double* samples,
                            std::size_t count, double shift,
                            std::uint64_t* counts, double* sums,
                            double* sum_sq) {
  for (std::size_t p = 0; p < kBlockPts; ++p) {
    counts[p] = 0;
    sums[p] = 0.0;
  }
  double q = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pts[i];
    const double d = samples[i] - shift;
    counts[p] += 1;
    sums[p] += d;
    q += d * d;
  }
  *sum_sq = q;
}

void block_histogram_sampled(const std::uint8_t* pts, const double* rows,
                             std::size_t count, std::size_t width,
                             const double* shifts, std::uint64_t* counts,
                             double* sums, double* sum_sq) {
  for (std::size_t p = 0; p < kBlockPts; ++p) counts[p] = 0;
  for (std::size_t j = 0; j < kBlockPts * width; ++j) sums[j] = 0.0;
  for (std::size_t l = 0; l < width; ++l) sum_sq[l] = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t p = pts[i];
    counts[p] += 1;
    const double* __restrict row = rows + i * width;
    double* __restrict s = sums + p * width;
    for (std::size_t l = 0; l < width; ++l) {
      const double d = row[l] - shifts[l];
      s[l] += d;
      sum_sq[l] += d * d;
    }
  }
}

void block_contract_counts(const double* pred, const std::uint64_t* counts,
                           std::size_t num_pts, std::size_t num_guesses,
                           double* sum_h, double* sum_h2) {
  for (std::size_t g = 0; g < num_guesses; ++g) {
    sum_h[g] = 0.0;
    sum_h2[g] = 0.0;
  }
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const double np = static_cast<double>(counts[p]);
    const double* __restrict h = pred + p * num_guesses;
    double* __restrict s1 = sum_h;
    double* __restrict s2 = sum_h2;
    for (std::size_t g = 0; g < num_guesses; ++g) {
      const double w = np * h[g];
      s1[g] += w;
      s2[g] += w * h[g];
    }
  }
}

void block_contract_sums(const double* pred, const double* sums,
                         const std::uint64_t* counts, std::size_t num_pts,
                         std::size_t width, std::size_t num_guesses,
                         double* r) {
  for (std::size_t j = 0; j < width * num_guesses; ++j) r[j] = 0.0;
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const double* __restrict h = pred + p * num_guesses;
    const double* __restrict sp = sums + p * width;
    for (std::size_t l = 0; l < width; ++l) {
      const double s = sp[l];
      double* __restrict rl = r + l * num_guesses;
      for (std::size_t g = 0; g < num_guesses; ++g) {
        rl[g] += s * h[g];
      }
    }
  }
}

void block_contract_dom(const std::uint8_t* pred_bit,
                        const std::uint64_t* counts, const double* sums,
                        std::size_t num_pts, std::size_t num_guesses,
                        double* sum0, double* sum1, std::uint64_t* cnt0,
                        std::uint64_t* cnt1) {
  for (std::size_t g = 0; g < num_guesses; ++g) {
    sum0[g] = 0.0;
    sum1[g] = 0.0;
    cnt0[g] = 0;
    cnt1[g] = 0;
  }
  for (std::size_t p = 0; p < num_pts; ++p) {
    if (counts[p] == 0) continue;
    const std::uint64_t np = counts[p];
    const double sp = sums[p];
    const std::uint8_t* __restrict b = pred_bit + p * num_guesses;
    double* __restrict s0 = sum0;
    double* __restrict s1 = sum1;
    std::uint64_t* __restrict c0 = cnt0;
    std::uint64_t* __restrict c1 = cnt1;
    for (std::size_t g = 0; g < num_guesses; ++g) {
      const std::uint64_t bit = b[g];
      const double w = static_cast<double>(bit);
      s1[g] += w * sp;
      s0[g] += (1.0 - w) * sp;
      c1[g] += bit * np;
      c0[g] += (1 - bit) * np;
    }
  }
}

}  // namespace detail

void build_block_histogram(const std::uint8_t* pts, const double* samples,
                           std::size_t count, BlockHistogram& hist) {
  hist.shift = count == 0 ? 0.0 : samples[0];
  hist.count = count;
  detail::block_histogram_scalar(pts, samples, count, hist.shift,
                                 hist.counts, hist.sums, &hist.sum_sq);
}

}  // namespace sable
