// AVX-512 instantiations of every batch kernel; the Word512 sibling of
// kernels_avx2.cpp — see that file and util/lane_word.hpp for the
// multi-ISA rules (portable pre-includes, impl headers inside the target
// region, runtime selection via util/cpu_dispatch.hpp) and for the
// corpus codec's reuse of the dispatched 64×64 transpose.
#include "util/lane_word.hpp"

#if SABLE_HAVE_WORD512

#include <algorithm>
#include <bit>
#include <cstring>

#include "cell/circuit_sim.hpp"
#include "cell/wddl.hpp"
#include "dpa/block_stats.hpp"
#include "expr/truth_table.hpp"
#include "netlist/conduction.hpp"
#include "switchsim/cycle_sim.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/error.hpp"

#pragma GCC push_options
#pragma GCC target("avx512f")

#include "cell/circuit_sim_impl.hpp"
#include "cell/wddl_impl.hpp"
#include "dpa/block_stats_impl.hpp"
#include "netlist/conduction_impl.hpp"
#include "switchsim/cycle_sim_impl.hpp"

namespace sable {

SABLE_INSTANTIATE_CONDUCTION(::sable::Word512)
SABLE_INSTANTIATE_CYCLE_SIM(::sable::Word512)
SABLE_INSTANTIATE_CIRCUIT_SIM(::sable::Word512)
SABLE_INSTANTIATE_WDDL(::sable::Word512)

namespace detail {

// Tier 2: block-statistics bodies autovectorized for AVX-512F (results
// bit-identical to every other tier — see dpa/block_stats.hpp).
SABLE_INSTANTIATE_BLOCK_STATS(2)

}  // namespace detail

}  // namespace sable

#pragma GCC pop_options

#endif  // SABLE_HAVE_WORD512
