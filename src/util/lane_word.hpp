// Lane words — bit-parallel batches, one bit per independent lane.
//
// Every bit-parallel kernel in the stack (conduction closure, switch-level
// gate simulation, gate-circuit evaluation) operates on std::uint64_t
// lane words: one bit per simulation lane, one word per variable or node,
// 64 lanes per word. This header holds the word helpers those kernels
// share: lane_mask(count) (THE tail-batch mask — every partial batch in
// the stack comes from here so the count invariant is asserted in exactly
// one place) and the per-lane double-array walks.
//
// Word128 is a wider batch of two 64-lane chunks that pack_lane_words
// (switchsim/cycle_sim.hpp) can fill: plain chunk storage with no
// arithmetic, built through lane_from_chunks(). LaneTraits<W> gives any
// word's kLanes / kChunks.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace sable {

/// `kChunkCount` 64-lane chunks, little-endian: lane L lives in bit L % 64 of
/// chunk L / 64.
template <std::size_t kChunkCount>
struct LaneChunks {
  std::uint64_t chunk[kChunkCount];
};

using Word128 = LaneChunks<2>;

/// Lanes and 64-bit chunks of a lane word (std::uint64_t or LaneChunks).
template <typename W>
struct LaneTraits {
  static_assert(sizeof(W) % 8 == 0, "a lane word is whole 64-bit chunks");
  static constexpr std::size_t kChunks = sizeof(W) / 8;
  static constexpr std::size_t kLanes = 64 * kChunks;
};

/// Builds a word from its kChunks little-endian 64-bit chunks.
template <typename W>
W lane_from_chunks(const std::uint64_t* chunks) {
  W w{};
  std::memcpy(&w, chunks, sizeof(W));
  return w;
}

/// Word whose first `count` lanes are set — the one and only source of
/// tail-batch masks. A count outside [1, 64] is a kernel bug upstream
/// (phantom traces would be simulated or every lane silently dropped), so
/// it aborts rather than throwing.
inline std::uint64_t lane_mask(std::size_t count) {
  SABLE_ASSERT(count >= 1 && count <= 64,
               "lane_mask: count must be in [1, lane_count]");
  return count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

// ---- per-lane double-array helpers ----------------------------------------
//
// The kernels extract per-lane floating-point results by walking a word's
// bits; these masked-array loops are THE shared walk. Full words take the
// plain vectorizable loop, sparse words walk their set bits —
// bit-identical per lane either way.

/// out[lane] = value for every selected lane of `mask`.
inline void lane_fill_selected(std::uint64_t mask, double value,
                               double* out) {
  if (mask == ~std::uint64_t{0}) {
    for (std::size_t lane = 0; lane < 64; ++lane) out[lane] = value;
    return;
  }
  for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    out[std::countr_zero(rest)] = value;
  }
}

/// out[lane] += add[lane] for every selected lane of `mask`.
inline void lane_accumulate_selected(std::uint64_t mask, const double* add,
                                     double* out) {
  if (mask == ~std::uint64_t{0}) {
    for (std::size_t lane = 0; lane < 64; ++lane) out[lane] += add[lane];
    return;
  }
  for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const std::size_t lane = std::countr_zero(rest);
    out[lane] += add[lane];
  }
}

/// out[lane] += delta for every set lane of `lanes`.
inline void lane_add_delta(std::uint64_t lanes, double delta, double* out) {
  for (std::uint64_t rest = lanes; rest != 0; rest &= rest - 1) {
    out[std::countr_zero(rest)] += delta;
  }
}

/// Lane widths pack_lane_words is compiled for, ascending: std::uint64_t
/// and Word128, on every machine.
inline std::vector<std::size_t> supported_lane_widths() { return {64, 128}; }

}  // namespace sable
