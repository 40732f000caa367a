#include "switchsim/cycle_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "netlist/conduction.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/error.hpp"

#if SABLE_HAVE_WORD256 || SABLE_HAVE_WORD512
#include <immintrin.h>
#endif

// Function-level ISA enablement for the codec's 64×64 transposes: the TU
// is compiled for the base architecture, so each vector body carries its
// own target attribute and is only called once active_tier() allows it.
#define SABLE_TARGET_AVX2 __attribute__((target("avx2")))
#define SABLE_TARGET_AVX512 __attribute__((target("avx512f")))

namespace sable {

namespace {

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, recursive
/// block swaps), LSB-first: bit c of a[r] moves to bit r of a[c]. Three
/// block levels of delta-swaps — 64·6 word ops total, versus 64·64
/// shift/mask/or steps for a per-bit gather.
void bit_transpose_64x64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
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

// --- Vectorized transpose bodies -----------------------------------------
//
// The corpus codec's bit_transpose_blocks is the one caller that runs
// these per trace, so it alone dispatches. This TU is compiled for the
// base architecture and carries every body its build allows (the
// SABLE_HAVE_WORD* guards), each with an explicit function-level target
// attribute. Which body runs is picked per call from active_tier(), so
// SABLE_DISPATCH=portable still exercises the scalar body and a lower-tier
// cap never executes a wider instruction. All bodies produce bit-identical
// output — pack_transpose_test asserts it per runtime tier.
//
// GCC 12's avx512 intrinsic headers trip -Wuninitialized through the
// _mm512_undefined_* pass-through operands of the permutexvar intrinsic
// when its always_inline body lands in these functions (GCC PR105593);
// the values are never read, so silence that one diagnostic here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#if SABLE_HAVE_WORD512
/// 64×64 transpose, zmm form: the same Hacker's Delight delta-swap tree,
/// but on eight 8-row vectors. Block levels j=32/16/8 pair whole vectors;
/// j=4/2/1 run inside each vector with a partner permute (vpermq), a
/// broadcast of t back over both pair halves, and a masked blend picking
/// t<<j for the low row and t for the high row ("masked shifts").
SABLE_TARGET_AVX512 void bit_transpose_64x64_avx512(std::uint64_t a[64]) {
  __m512i v[8];
  for (int i = 0; i < 8; ++i) v[i] = _mm512_loadu_si512(a + 8 * i);
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j >= 8; j >>= 1, m ^= m << j) {
    const __m512i mm = _mm512_set1_epi64((long long)m);
    const int d = j / 8;  // vector-index distance between partner rows
    for (int k = 0; k < 8; k = ((k | d) + 1) & ~d) {
      const __m512i t = _mm512_and_si512(
          _mm512_xor_si512(_mm512_srli_epi64(v[k], (unsigned)j), v[k + d]),
          mm);
      v[k] = _mm512_xor_si512(v[k], _mm512_slli_epi64(t, (unsigned)j));
      v[k + d] = _mm512_xor_si512(v[k + d], t);
    }
  }
  struct Level {
    int j;
    long long mask;
    long long perm[8];   // partner row for each element
    long long bcast[8];  // low element of each pair, broadcast t over both
    unsigned char blend;  // elements taking plain t (the high partners)
  };
  static const Level kLevels[3] = {
      {4, 0x0F0F0F0F0F0F0F0Fll,
       {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 2, 3, 0, 1, 2, 3}, 0xF0},
      {2, 0x3333333333333333ll,
       {2, 3, 0, 1, 6, 7, 4, 5}, {0, 1, 0, 1, 4, 5, 4, 5}, 0xCC},
      {1, 0x5555555555555555ll,
       {1, 0, 3, 2, 5, 4, 7, 6}, {0, 0, 2, 2, 4, 4, 6, 6}, 0xAA}};
  for (const Level& level : kLevels) {
    const __m512i mm = _mm512_set1_epi64(level.mask);
    const __m512i pidx = _mm512_loadu_si512(level.perm);
    const __m512i bidx = _mm512_loadu_si512(level.bcast);
    for (int i = 0; i < 8; ++i) {
      const __m512i p = _mm512_permutexvar_epi64(pidx, v[i]);
      const __m512i t = _mm512_and_si512(
          _mm512_xor_si512(_mm512_srli_epi64(v[i], (unsigned)level.j), p),
          mm);
      const __m512i tb = _mm512_permutexvar_epi64(bidx, t);
      v[i] = _mm512_xor_si512(
          v[i], _mm512_mask_blend_epi64(
                    level.blend, _mm512_slli_epi64(tb, (unsigned)level.j),
                    tb));
    }
  }
  for (int i = 0; i < 8; ++i) _mm512_storeu_si512(a + 8 * i, v[i]);
}
#endif  // SABLE_HAVE_WORD512

#if SABLE_HAVE_WORD256
/// 64×64 transpose, ymm form: delta-swap tree on sixteen 4-row vectors.
/// Levels j=32/16/8/4 pair whole vectors; j=2/1 run inside each vector
/// with vpermq partner/broadcast shuffles and a dword blend.
SABLE_TARGET_AVX2 void bit_transpose_64x64_avx2(std::uint64_t a[64]) {
  __m256i v[16];
  for (int i = 0; i < 16; ++i) {
    v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * i));
  }
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j >= 4; j >>= 1, m ^= m << j) {
    const __m256i mm = _mm256_set1_epi64x((long long)m);
    const int d = j / 4;  // vector-index distance between partner rows
    for (int k = 0; k < 16; k = ((k | d) + 1) & ~d) {
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srli_epi64(v[k], j), v[k + d]), mm);
      v[k] = _mm256_xor_si256(v[k], _mm256_slli_epi64(t, j));
      v[k + d] = _mm256_xor_si256(v[k + d], t);
    }
  }
  {  // j = 2: element pairs (0,2), (1,3) inside each ymm
    const __m256i mm = _mm256_set1_epi64x(0x3333333333333333ll);
    for (int i = 0; i < 16; ++i) {
      const __m256i p = _mm256_permute4x64_epi64(v[i], 0x4E);
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srli_epi64(v[i], 2), p), mm);
      const __m256i tb = _mm256_permute4x64_epi64(t, 0x44);
      v[i] = _mm256_xor_si256(
          v[i], _mm256_blend_epi32(_mm256_slli_epi64(tb, 2), tb, 0xF0));
    }
  }
  {  // j = 1: element pairs (0,1), (2,3) inside each ymm
    const __m256i mm = _mm256_set1_epi64x(0x5555555555555555ll);
    for (int i = 0; i < 16; ++i) {
      const __m256i p = _mm256_permute4x64_epi64(v[i], 0xB1);
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srli_epi64(v[i], 1), p), mm);
      const __m256i tb = _mm256_permute4x64_epi64(t, 0xA0);
      v[i] = _mm256_xor_si256(
          v[i], _mm256_blend_epi32(_mm256_slli_epi64(tb, 1), tb, 0xCC));
    }
  }
  for (int i = 0; i < 16; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 4 * i), v[i]);
  }
}
#endif  // SABLE_HAVE_WORD256

using Transpose64Fn = void (*)(std::uint64_t*);

/// Widest 64×64 transpose body the given tier may execute, resolved once
/// per call (the tier probe stays off the per-block loop).
Transpose64Fn transpose_64x64_kernel(DispatchTier tier) {
#if SABLE_HAVE_WORD512
  if (tier >= DispatchTier::kAvx512) return bit_transpose_64x64_avx512;
#endif
#if SABLE_HAVE_WORD256
  if (tier >= DispatchTier::kAvx2) return bit_transpose_64x64_avx2;
#endif
  (void)tier;
  return bit_transpose_64x64;
}

#pragma GCC diagnostic pop

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

// Every compiled lane word packs through the same bodies; the wide words
// are chunk containers (util/lane_word.hpp), so no ISA-specific
// instantiation is needed.
#define SABLE_INSTANTIATE_PACK(W)                                         \
  template void pack_lane_words<W>(const std::uint64_t*, std::size_t,     \
                                   std::vector<W>&);                      \
  template void pack_lane_words<W>(const std::uint8_t*, std::size_t,      \
                                   std::vector<W>&);                      \
  template void pack_lane_words_gather<W>(const std::uint64_t*,           \
                                          std::size_t, std::vector<W>&);

SABLE_INSTANTIATE_PACK(std::uint64_t)
SABLE_INSTANTIATE_PACK(Word128)
#if SABLE_HAVE_WORD256
SABLE_INSTANTIATE_PACK(Word256)
#endif
#if SABLE_HAVE_WORD512
SABLE_INSTANTIATE_PACK(Word512)
#endif

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
  const Transpose64Fn transpose = transpose_64x64_kernel(active_tier());
  for (std::size_t b = 0; b < blocks; ++b) {
    transpose(words + 64 * b);
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
