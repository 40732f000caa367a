// AVX2 instantiations of every batch kernel, compiled into the default
// (runtime-dispatched) build alongside the portable ones.
//
// Consumers beyond the trace engine: the corpus codec's bit-plane stage
// (src/io/codec.cpp) runs on the same dispatched 64×64 transpose as the
// lane packers, so its encode/decode speed tracks these kernel bodies.
//
// Multi-ISA rules (see util/lane_word.hpp):
//  - The TU itself is compiled with the base architecture — never with
//    -mavx2. Every dependency header is included FIRST, so all std:: and
//    project inline code lexically outside the target region below stays
//    portable (comdat copies must be executable on any machine the binary
//    runs on).
//  - Only the kernel template definitions (the *_impl.hpp headers) are
//    included inside the #pragma GCC target("avx2") region, so exactly the
//    explicit Word256 instantiations — selected at runtime only when the
//    CPU has AVX2 (util/cpu_dispatch.hpp) — carry AVX2 code.
#include "util/lane_word.hpp"

#if SABLE_HAVE_WORD256

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
#pragma GCC target("avx2")

#include "cell/circuit_sim_impl.hpp"
#include "cell/wddl_impl.hpp"
#include "dpa/block_stats_impl.hpp"
#include "netlist/conduction_impl.hpp"
#include "switchsim/cycle_sim_impl.hpp"

namespace sable {

SABLE_INSTANTIATE_CONDUCTION(::sable::Word256)
SABLE_INSTANTIATE_CYCLE_SIM(::sable::Word256)
SABLE_INSTANTIATE_CIRCUIT_SIM(::sable::Word256)
SABLE_INSTANTIATE_WDDL(::sable::Word256)

namespace detail {

// Tier 1: the distinguishers' block-statistics contraction/histogram
// bodies, autovectorized for AVX2 (same results bit for bit as every
// other tier — see dpa/block_stats.hpp).
SABLE_INSTANTIATE_BLOCK_STATS(1)

}  // namespace detail

}  // namespace sable

#pragma GCC pop_options

#endif  // SABLE_HAVE_WORD256
