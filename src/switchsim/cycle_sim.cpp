#include "switchsim/cycle_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "netlist/conduction.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

/// One delta-swap level of the 64×64 transpose: for every row pair
/// (i, i + J) with bit J of i clear, the `kMask << J` bits of a[i] swap
/// with the `kMask` bits of a[i + J]. A compile-time shift and mask over a
/// contiguous inner loop let -O3 vectorize the level for the baseline ISA.
template <unsigned J, std::uint64_t kMask>
void transpose_level(std::uint64_t a[64]) {
  for (std::size_t base = 0; base < 64; base += 2 * J) {
    for (std::size_t i = base; i < base + J; ++i) {
      const std::uint64_t t = ((a[i] >> J) ^ a[i + J]) & kMask;
      a[i] ^= t << J;
      a[i + J] ^= t;
    }
  }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, recursive
/// block swaps), LSB-first: bit c of a[r] moves to bit r of a[c]. Six
/// levels of delta-swaps — 64·6 word ops total, versus 64·64
/// shift/mask/or steps for a per-bit gather. A bit permutation, so its
/// output is the same on every machine, and it is its own inverse.
void bit_transpose_64x64(std::uint64_t a[64]) {
  transpose_level<32, 0x00000000FFFFFFFFull>(a);
  transpose_level<16, 0x0000FFFF0000FFFFull>(a);
  transpose_level<8, 0x00FF00FF00FF00FFull>(a);
  transpose_level<4, 0x0F0F0F0F0F0F0F0Full>(a);
  transpose_level<2, 0x3333333333333333ull>(a);
  transpose_level<1, 0x5555555555555555ull>(a);
}

/// 8×8 bit-matrix transpose inside one 64-bit word (row r = byte r,
/// LSB-first): bit c of byte r moves to bit r of byte c.
std::uint64_t bit_transpose_8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x = x ^ t ^ (t << 28);
  return x;
}

/// Byte → bit-plane transpose of one full 64-byte row (callers zero-pad
/// ragged tails): bit L of planes[v] is bit v of src[L]. Eight 8×8 block
/// transposes, one 8-byte load each.
void byte_planes_64_portable(const std::uint8_t* src, std::uint64_t* planes) {
  for (std::size_t v = 0; v < 8; ++v) planes[v] = 0;
  for (std::size_t g = 0; g < 8; ++g) {
    std::uint64_t b;
    std::memcpy(&b, src + 8 * g, 8);
    b = bit_transpose_8x8(b);
    for (std::size_t v = 0; v < 8; ++v) {
      planes[v] |= ((b >> (8 * v)) & 0xffu) << (8 * g);
    }
  }
}

}  // namespace

template <typename W>
void pack_lane_words_gather(const std::uint64_t* assignments,
                            std::size_t count, std::vector<W>& words) {
  using T = LaneTraits<W>;
  SABLE_ASSERT(count <= T::kLanes, "more assignments than lanes in the word");
  for (std::size_t v = 0; v < words.size(); ++v) {
    std::uint64_t chunks[T::kChunks];
    for (std::size_t j = 0; j < T::kChunks; ++j) {
      const std::size_t base = 64 * j;
      const std::size_t lanes = count > base ? std::min<std::size_t>(
                                                   64, count - base)
                                             : 0;
      std::uint64_t chunk = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        chunk |= ((assignments[base + lane] >> v) & 1u) << lane;
      }
      chunks[j] = chunk;
    }
    words[v] = lane_from_chunks<W>(chunks);
  }
}

template <typename W>
void pack_lane_words(const std::uint64_t* assignments, std::size_t count,
                     std::vector<W>& words) {
  using T = LaneTraits<W>;
  SABLE_ASSERT(count <= T::kLanes, "more assignments than lanes in the word");
  const std::size_t vars = words.size();
  SABLE_ASSERT(vars <= 64, "at most 64 packed variables per assignment");

  if (count == 1) {
    // Single lane (the scalar wrappers): bit extraction only, no matrix.
    std::uint64_t chunks[T::kChunks] = {};
    const std::uint64_t x = assignments[0];
    for (std::size_t v = 0; v < vars; ++v) {
      chunks[0] = (x >> v) & 1u;
      words[v] = lane_from_chunks<W>(chunks);
    }
    return;
  }

  // One 64×64 transpose per occupied 64-lane chunk, zero-padded past
  // `count`; chunks wholly past `count` stay zero.
  std::uint64_t out[64][T::kChunks] = {};
  for (std::size_t j = 0; j < T::kChunks && 64 * j < count; ++j) {
    const std::size_t base = 64 * j;
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    std::uint64_t a[64] = {};
    std::copy_n(assignments + base, lanes, a);
    bit_transpose_64x64(a);
    for (std::size_t v = 0; v < vars; ++v) out[v][j] = a[v];
  }
  for (std::size_t v = 0; v < vars; ++v) {
    words[v] = lane_from_chunks<W>(out[v]);
  }
}

template <typename W>
void pack_lane_words(const std::uint8_t* values, std::size_t count,
                     std::vector<W>& words) {
  using T = LaneTraits<W>;
  SABLE_ASSERT(count <= T::kLanes, "more values than lanes in the word");
  const std::size_t vars = words.size();
  SABLE_ASSERT(vars <= 8, "byte-source packing carries at most 8 variables");

  std::uint64_t out[8][T::kChunks] = {};
  for (std::size_t j = 0; j < T::kChunks && 64 * j < count; ++j) {
    const std::size_t base = 64 * j;
    const std::size_t lanes = std::min<std::size_t>(64, count - base);
    std::uint8_t row[64] = {};
    std::memcpy(row, values + base, lanes);
    std::uint64_t planes[8];
    byte_planes_64_portable(row, planes);
    for (std::size_t v = 0; v < vars; ++v) out[v][j] = planes[v];
  }
  for (std::size_t v = 0; v < vars; ++v) {
    words[v] = lane_from_chunks<W>(out[v]);
  }
}

// Both lane words pack through the same bodies; Word128 is a chunk
// container (util/lane_word.hpp), so no ISA-specific instantiation is
// needed.
#define SABLE_INSTANTIATE_PACK(W)                                         \
  template void pack_lane_words<W>(const std::uint64_t*, std::size_t,     \
                                   std::vector<W>&);                      \
  template void pack_lane_words<W>(const std::uint8_t*, std::size_t,      \
                                   std::vector<W>&);                      \
  template void pack_lane_words_gather<W>(const std::uint64_t*,           \
                                          std::size_t, std::vector<W>&);

SABLE_INSTANTIATE_PACK(std::uint64_t)
SABLE_INSTANTIATE_PACK(Word128)

SablGateSimBatch::SablGateSimBatch(const DpdnNetwork& net,
                                   GateEnergyModel model)
    : net_(net), model_(std::move(model)) {
  SABLE_ASSERT(model_.node_cap.size() == net_.node_count(),
               "gate model capacitance table size mismatch");
  charged_.assign(net_.node_count(), ~std::uint64_t{0});
}

void SablGateSimBatch::cycle(const std::vector<std::uint64_t>& var_words,
                             std::uint64_t lane_mask, double* energy) {
  device_conduction_masks(net_, var_words, masks_);
  reach_.assign(net_.node_count(), 0);
  reach_[DpdnNetwork::kNodeX] = lane_mask;
  reach_[DpdnNetwork::kNodeY] = lane_mask;
  reach_[DpdnNetwork::kNodeZ] = lane_mask;
  propagate_conduction(net_, masks_, reach_);

  // Per lane the arithmetic mirrors the scalar cycle exactly (constant
  // term, then node capacitances in node order, then the output extra),
  // so a lane is bit-identical to a width-1 run. Full words take plain
  // 0..63 loops (auto-vectorized); sparse ones walk their set bits.
  constexpr std::uint64_t kFull = ~std::uint64_t{0};
  lane_fill_selected(lane_mask, model_.constant_energy, energy);

  for (NodeId n = 0; n < net_.node_count(); ++n) {
    // Evaluation: connected nodes discharge to ground; precharge with input
    // overlap recharges the same set from the supply. Floating nodes keep
    // their held level and cost nothing.
    const double e_node = model_.node_cap[n] * model_.vdd * model_.vdd;
    const std::uint64_t w = reach_[n];
    if (w == kFull) {
      // Fully connected words (the §4 designs' steady state): plain
      // vectorizable add across all lanes.
      for (std::size_t lane = 0; lane < 64; ++lane) energy[lane] += e_node;
    } else if (lane_mask == kFull) {
      // Mixed word (genuine networks): branch-free select; adding the
      // table's +0.0 for a clear bit leaves a non-negative accumulator
      // bit-identical to skipping the lane.
      const double select[2] = {0.0, e_node};
      for (std::size_t lane = 0; lane < 64; ++lane) {
        energy[lane] += select[(w >> lane) & 1u];
      }
    } else {
      for (std::uint64_t rest = w; rest != 0; rest &= rest - 1) {
        energy[std::countr_zero(rest)] += e_node;
      }
    }
    charged_[n] |= w;  // connected lanes end recharged
  }

  // The firing output rail charges its extra (routing) load: the true rail
  // when f = 1, the false rail otherwise. Balanced extras cancel the data
  // dependence; mismatched ones leak (§2).
  if (model_.out_true_extra != 0.0 || model_.out_false_extra != 0.0) {
    // X–Z closure reusing this cycle's device masks (no reallocation).
    reach_xz_.assign(net_.node_count(), 0);
    reach_xz_[DpdnNetwork::kNodeZ] = lane_mask;
    propagate_conduction(net_, masks_, reach_xz_);
    const std::uint64_t f = reach_xz_[DpdnNetwork::kNodeX];
    const double rail[2] = {model_.out_false_extra * model_.vdd * model_.vdd,
                            model_.out_true_extra * model_.vdd * model_.vdd};
    if (lane_mask == kFull) {
      for (std::size_t lane = 0; lane < 64; ++lane) {
        energy[lane] += rail[(f >> lane) & 1u];
      }
    } else {
      for (std::uint64_t rest = lane_mask; rest != 0; rest &= rest - 1) {
        const std::size_t lane = std::countr_zero(rest);
        energy[lane] += rail[(f >> lane) & 1u];
      }
    }
  }
}

void SablGateSimBatch::reset(bool charged) {
  charged_.assign(net_.node_count(), charged ? ~std::uint64_t{0} : 0);
}

void bit_transpose_blocks(std::uint64_t* words, std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    bit_transpose_64x64(words + 64 * b);
  }
}

SablGateSim::SablGateSim(const DpdnNetwork& net, GateEnergyModel model)
    : batch_(net, std::move(model)) {
  charged_.assign(net.node_count(), true);
  var_words_.assign(net.num_vars(), 0);
}

double SablGateSim::cycle(std::uint64_t assignment) {
  pack_lane_words(&assignment, 1, var_words_);
  double energy[SablGateSimBatch::kLanes];
  batch_.cycle(var_words_, 1u, energy);
  const auto& words = batch_.node_state_words();
  for (NodeId n = 0; n < batch_.network().node_count(); ++n) {
    charged_[n] = (words[n] & 1u) != 0;
  }
  return energy[0];
}

void SablGateSim::reset(bool charged) {
  batch_.reset(charged);
  charged_.assign(batch_.network().node_count(), charged);
}

}  // namespace sable
