// AVX-512 tier of the block-statistics kernels; the sibling of
// kernels_avx2.cpp — see that file for the multi-ISA rules (portable
// pre-includes, impl header inside the target region, runtime selection
// via util/cpu_dispatch.hpp).
#include "util/lane_word.hpp"

#if SABLE_HAVE_WORD512

#include "dpa/block_stats.hpp"

#pragma GCC push_options
#pragma GCC target("avx512f")

#include "dpa/block_stats_impl.hpp"

namespace sable {
namespace detail {

// Tier 2: block-statistics bodies autovectorized for AVX-512F (results
// bit-identical to every other tier — see dpa/block_stats.hpp).
SABLE_INSTANTIATE_BLOCK_STATS(2)

}  // namespace detail
}  // namespace sable

#pragma GCC pop_options

#endif  // SABLE_HAVE_WORD512
