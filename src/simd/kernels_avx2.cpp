// AVX2 tier of the distinguishers' block-statistics kernels, compiled into
// the default (runtime-dispatched) build alongside the portable tier and
// selected only when the CPU has AVX2 (util/cpu_dispatch.hpp).
//
// The TU itself is compiled with the base architecture — never with
// -mavx2. Every dependency header is included FIRST, so all std:: and
// project inline code lexically outside the target region below stays
// portable (comdat copies must be executable on any machine the binary
// runs on); only the kernel template definitions are included inside the
// #pragma GCC target("avx2") region.
#include "util/lane_word.hpp"

#if SABLE_HAVE_WORD256

#include "dpa/block_stats.hpp"

#pragma GCC push_options
#pragma GCC target("avx2")

#include "dpa/block_stats_impl.hpp"

namespace sable {
namespace detail {

// Tier 1: the block-statistics contraction/histogram bodies,
// autovectorized for AVX2 (same results bit for bit as every other tier —
// see dpa/block_stats.hpp).
SABLE_INSTANTIATE_BLOCK_STATS(1)

}  // namespace detail
}  // namespace sable

#pragma GCC pop_options

#endif  // SABLE_HAVE_WORD256
