// Portable-tier instantiations of the block-statistics kernels plus the
// per-tier kernel-set selection. The AVX2/AVX-512 instantiations compile
// in src/simd/kernels_avx2.cpp / kernels_avx512.cpp (inside their
// #pragma GCC target regions) so this TU stays base-architecture clean.
#include "dpa/block_stats.hpp"

#include "dpa/block_stats_impl.hpp"
#include "util/error.hpp"

namespace sable {

namespace detail {

SABLE_INSTANTIATE_BLOCK_STATS(0)

void require_block_pts(const std::uint64_t* counts,
                       std::size_t num_plaintexts) {
  for (std::size_t p = num_plaintexts; p < kBlockPts; ++p) {
    SABLE_REQUIRE(counts[p] == 0, "plaintext out of range");
  }
}

}  // namespace detail

namespace {

template <int kTier>
constexpr BlockStatKernels tier_kernels() {
  return BlockStatKernels{
      &detail::block_histogram_scalar<kTier>,
      &detail::block_histogram_sampled<kTier>,
      &detail::block_contract_counts<kTier>,
      &detail::block_contract_sums<kTier>,
      &detail::block_contract_dom<kTier>,
  };
}

}  // namespace

const BlockStatKernels& block_stat_kernels(DispatchTier tier) {
#if SABLE_HAVE_WORD512
  if (tier >= DispatchTier::kAvx512) {
    static constexpr BlockStatKernels kAvx512 = tier_kernels<2>();
    return kAvx512;
  }
#endif
#if SABLE_HAVE_WORD256
  if (tier >= DispatchTier::kAvx2) {
    static constexpr BlockStatKernels kAvx2 = tier_kernels<1>();
    return kAvx2;
  }
#endif
  (void)tier;
  static constexpr BlockStatKernels kPortable = tier_kernels<0>();
  return kPortable;
}

void build_block_histogram(const std::uint8_t* pts, const double* samples,
                           std::size_t count, BlockHistogram& hist) {
  hist.shift = count == 0 ? 0.0 : samples[0];
  hist.count = count;
  block_stat_kernels(active_tier())
      .histogram_scalar(pts, samples, count, hist.shift, hist.counts,
                        hist.sums, &hist.sum_sq);
}

}  // namespace sable
