// Lane words — the batch kernels' generic machine word.
//
// Every bit-parallel kernel in the stack (conduction closure, switch-level
// gate simulation, gate-circuit evaluation, trace generation) operates on
// "lane words": one bit per independent simulation lane, one word per
// variable or node. The word type is generic; a LaneWord provides
//
//   LaneTraits<W>::kLanes    lanes per word (64 / 128 / 256 / 512)
//   LaneTraits<W>::kChunks   64-bit chunks per word (kLanes / 64)
//   zero() / ones()          all-clear / all-set words
//   any(w)                   true iff any lane bit is set
//   to_chunks / from_chunks  transfer to/from std::uint64_t[kChunks]
//   ~  &  |  ^  &=  |=  ==   the usual bitwise operators
//
// plus the free helpers lane_mask<W>(count) (THE tail-batch mask — every
// partial batch in the stack must come from here so the count invariant is
// asserted in exactly one place) and lane_any / lane_chunks.
//
// Three word families are provided:
//   std::uint64_t  the historic 64-lane kernel word (native scalar ops),
//   Word128        a portable pair of std::uint64_t (no ISA requirement),
//   Word256/512    AVX2 / AVX-512 vectors. In the default runtime-dispatch
//                  build (SABLE_SIMD=RUNTIME) the types exist in every TU
//                  (SABLE_DISPATCH_AVX2/512 are defined binary-wide) but
//                  their kernels are only *instantiated* in the per-ISA
//                  TUs under src/simd/, and only *selected* at runtime
//                  when cpu_features() reports the ISA (util/cpu_dispatch).
//                  The portable build (SABLE_SIMD=OFF) omits them.
//
// Multi-ISA safety rules (how one binary carries portable + AVX2 +
// AVX-512 code without undefined behaviour):
//   - Every intrinsic-bearing member below carries a function-level
//     target attribute, so any TU may *compile* it; it must only be
//     *called* from a context compiled for (at least) the same ISA —
//     which the src/simd kernel TUs guarantee with #pragma GCC target.
//   - Wide words never cross a portable/ISA boundary by value: kernel
//     entry points take `const W&` / `std::vector<W>&`, and the free
//     helpers here are always_inline + chunk(memcpy)-based so they melt
//     into their caller whatever its target. (A by-value Word256 return
//     from a portable function into an AVX2 caller uses two different
//     calling conventions — memory vs ymm — and corrupts silently.)
//   - Portable code (tests, benches) reads wide words through
//     lane_chunks(), never through the intrinsic accessors.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/error.hpp"

#if defined(SABLE_DISPATCH_AVX2)
#define SABLE_HAVE_WORD256 1
#else
#define SABLE_HAVE_WORD256 0
#endif

#if defined(SABLE_DISPATCH_AVX512)
#define SABLE_HAVE_WORD512 1
#else
#define SABLE_HAVE_WORD512 0
#endif

#if SABLE_HAVE_WORD256 || SABLE_HAVE_WORD512
#include <immintrin.h>
#endif

// Function-level ISA enablement: every TU is compiled for the base
// architecture (the src/simd TUs parse these headers before their
// #pragma GCC target), so each wide-word member carries its own target
// attribute.
#define SABLE_TARGET_AVX2 __attribute__((target("avx2")))
#define SABLE_TARGET_AVX512 __attribute__((target("avx512f")))

// Forced inlining for the free helpers: their bodies adopt the caller's
// target, so no portable/ISA ABI boundary ever materializes (see the
// safety rules above) — at any optimization level, including -O0.
#define SABLE_LANE_INLINE inline __attribute__((always_inline))

namespace sable {

template <typename W>
struct LaneTraits;  // specialized for every lane word

// ---- std::uint64_t: the historic 64-lane word -----------------------------

template <>
struct LaneTraits<std::uint64_t> {
  static constexpr std::size_t kLanes = 64;
  static constexpr std::size_t kChunks = 1;
  static std::uint64_t zero() { return 0; }
  static std::uint64_t ones() { return ~std::uint64_t{0}; }
  static bool any(std::uint64_t w) { return w != 0; }
  static void to_chunks(std::uint64_t w, std::uint64_t* out) { out[0] = w; }
  static std::uint64_t from_chunks(const std::uint64_t* chunks) {
    return chunks[0];
  }
};

// ---- Word128: portable 128-lane pair --------------------------------------

struct Word128 {
  std::uint64_t c0 = 0;
  std::uint64_t c1 = 0;

  friend Word128 operator&(Word128 a, Word128 b) {
    return {a.c0 & b.c0, a.c1 & b.c1};
  }
  friend Word128 operator|(Word128 a, Word128 b) {
    return {a.c0 | b.c0, a.c1 | b.c1};
  }
  friend Word128 operator^(Word128 a, Word128 b) {
    return {a.c0 ^ b.c0, a.c1 ^ b.c1};
  }
  Word128 operator~() const { return {~c0, ~c1}; }
  Word128& operator&=(Word128 b) {
    c0 &= b.c0;
    c1 &= b.c1;
    return *this;
  }
  Word128& operator|=(Word128 b) {
    c0 |= b.c0;
    c1 |= b.c1;
    return *this;
  }
  friend bool operator==(Word128 a, Word128 b) = default;
};

template <>
struct LaneTraits<Word128> {
  static constexpr std::size_t kLanes = 128;
  static constexpr std::size_t kChunks = 2;
  static Word128 zero() { return {}; }
  static Word128 ones() { return {~std::uint64_t{0}, ~std::uint64_t{0}}; }
  static bool any(Word128 w) { return (w.c0 | w.c1) != 0; }
  static void to_chunks(Word128 w, std::uint64_t* out) {
    out[0] = w.c0;
    out[1] = w.c1;
  }
  static Word128 from_chunks(const std::uint64_t* chunks) {
    return {chunks[0], chunks[1]};
  }
};

// ---- Word256: AVX2, 256 lanes ---------------------------------------------

#if SABLE_HAVE_WORD256

// alignas is load-bearing: without it a portable TU sees alignof(__m256i)
// capped at 16 (GCC caps alignment of vector types wider than the enabled
// ISA) while the AVX2-target TUs see 32 — portable allocations would be
// under-aligned for the kernels' aligned vector moves.
struct alignas(32) Word256 {
  __m256i v{};  // zero-initialized without intrinsics: portable TUs may
                // default-construct (vector storage) but not operate

  Word256() = default;
  SABLE_TARGET_AVX2 explicit Word256(__m256i x) : v(x) {}

  SABLE_TARGET_AVX2 friend Word256 operator&(Word256 a, Word256 b) {
    return Word256(_mm256_and_si256(a.v, b.v));
  }
  SABLE_TARGET_AVX2 friend Word256 operator|(Word256 a, Word256 b) {
    return Word256(_mm256_or_si256(a.v, b.v));
  }
  SABLE_TARGET_AVX2 friend Word256 operator^(Word256 a, Word256 b) {
    return Word256(_mm256_xor_si256(a.v, b.v));
  }
  SABLE_TARGET_AVX2 Word256 operator~() const {
    return Word256(_mm256_xor_si256(v, _mm256_set1_epi64x(-1)));
  }
  SABLE_TARGET_AVX2 Word256& operator&=(Word256 b) {
    v = _mm256_and_si256(v, b.v);
    return *this;
  }
  SABLE_TARGET_AVX2 Word256& operator|=(Word256 b) {
    v = _mm256_or_si256(v, b.v);
    return *this;
  }
  SABLE_TARGET_AVX2 friend bool operator==(Word256 a, Word256 b) {
    const __m256i diff = _mm256_xor_si256(a.v, b.v);
    return _mm256_testz_si256(diff, diff) != 0;
  }
};

template <>
struct LaneTraits<Word256> {
  static constexpr std::size_t kLanes = 256;
  static constexpr std::size_t kChunks = 4;
  static Word256 zero() { return Word256{}; }  // portable (no intrinsics)
  SABLE_TARGET_AVX2 static Word256 ones() {
    return Word256(_mm256_set1_epi64x(-1));
  }
  SABLE_TARGET_AVX2 static bool any(const Word256& w) {
    return _mm256_testz_si256(w.v, w.v) == 0;
  }
  SABLE_TARGET_AVX2 static void to_chunks(const Word256& w,
                                          std::uint64_t* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), w.v);
  }
  SABLE_TARGET_AVX2 static Word256 from_chunks(const std::uint64_t* chunks) {
    return Word256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(chunks)));
  }
};

#endif  // SABLE_HAVE_WORD256

// ---- Word512: AVX-512F, 512 lanes -----------------------------------------

#if SABLE_HAVE_WORD512

// alignas pins the cross-TU ABI exactly as for Word256.
struct alignas(64) Word512 {
  __m512i v{};  // zero-initialized without intrinsics (see Word256)

  Word512() = default;
  SABLE_TARGET_AVX512 explicit Word512(__m512i x) : v(x) {}

  SABLE_TARGET_AVX512 friend Word512 operator&(Word512 a, Word512 b) {
    return Word512(_mm512_and_si512(a.v, b.v));
  }
  SABLE_TARGET_AVX512 friend Word512 operator|(Word512 a, Word512 b) {
    return Word512(_mm512_or_si512(a.v, b.v));
  }
  SABLE_TARGET_AVX512 friend Word512 operator^(Word512 a, Word512 b) {
    return Word512(_mm512_xor_si512(a.v, b.v));
  }
  SABLE_TARGET_AVX512 Word512 operator~() const {
    return Word512(_mm512_xor_si512(v, _mm512_set1_epi64(-1)));
  }
  SABLE_TARGET_AVX512 Word512& operator&=(Word512 b) {
    v = _mm512_and_si512(v, b.v);
    return *this;
  }
  SABLE_TARGET_AVX512 Word512& operator|=(Word512 b) {
    v = _mm512_or_si512(v, b.v);
    return *this;
  }
  SABLE_TARGET_AVX512 friend bool operator==(Word512 a, Word512 b) {
    return _mm512_cmpneq_epi64_mask(a.v, b.v) == 0;
  }
};

template <>
struct LaneTraits<Word512> {
  static constexpr std::size_t kLanes = 512;
  static constexpr std::size_t kChunks = 8;
  static Word512 zero() { return Word512{}; }  // portable (no intrinsics)
  SABLE_TARGET_AVX512 static Word512 ones() {
    return Word512(_mm512_set1_epi64(-1));
  }
  SABLE_TARGET_AVX512 static bool any(const Word512& w) {
    return _mm512_test_epi64_mask(w.v, w.v) != 0;
  }
  SABLE_TARGET_AVX512 static void to_chunks(const Word512& w,
                                            std::uint64_t* out) {
    _mm512_storeu_si512(out, w.v);
  }
  SABLE_TARGET_AVX512 static Word512 from_chunks(const std::uint64_t* chunks) {
    return Word512(_mm512_loadu_si512(chunks));
  }
};

#endif  // SABLE_HAVE_WORD512

// ---- portable chunk transfer ----------------------------------------------

/// Copies the word's kChunks little-endian 64-bit chunks out without
/// touching vector intrinsics: every lane word IS its chunks laid out in
/// order, so a memcpy is exact. This is how dispatch-agnostic code
/// (tests, benches, the free helpers below) inspects wide words.
template <typename W>
SABLE_LANE_INLINE void lane_chunks(const W& w, std::uint64_t* out) {
  static_assert(sizeof(W) == 8 * LaneTraits<W>::kChunks,
                "a lane word is exactly its 64-bit chunks");
  // void casts: lane words have user-provided constructors (non-trivial
  // for -Wclass-memaccess) but are bags of bits by design.
  std::memcpy(out, static_cast<const void*>(&w), sizeof(W));
}

/// Builds a word from its kChunks little-endian 64-bit chunks, the
/// portable inverse of lane_chunks.
template <typename W>
SABLE_LANE_INLINE W lane_from_chunks(const std::uint64_t* chunks) {
  static_assert(sizeof(W) == 8 * LaneTraits<W>::kChunks,
                "a lane word is exactly its 64-bit chunks");
  W w{};
  std::memcpy(static_cast<void*>(&w), chunks, sizeof(W));
  return w;
}

/// Shifts the word's chunks up one position and inserts `low` as chunk 0:
/// chunk j of the result is chunk j-1 of `w` (chunk kChunks-1 falls off).
/// This is the CMOS history step — each 64-lane chunk's predecessor is the
/// previous chunk of the canonical trace stream.
template <typename W>
SABLE_LANE_INLINE W lane_shift_in_chunk(const W& w, std::uint64_t low) {
  using T = LaneTraits<W>;
  std::uint64_t chunks[T::kChunks];
  lane_chunks(w, chunks);
  std::uint64_t shifted[T::kChunks];
  shifted[0] = low;
  for (std::size_t j = 1; j < T::kChunks; ++j) shifted[j] = chunks[j - 1];
  return lane_from_chunks<W>(shifted);
}

#if SABLE_HAVE_WORD256
/// Register-resident form (the generic chunk spill would stall the CMOS
/// inner loop on store-to-load forwarding). ISA context required, like
/// every wide kernel instantiation.
template <>
SABLE_TARGET_AVX2 SABLE_LANE_INLINE Word256
lane_shift_in_chunk<Word256>(const Word256& w, std::uint64_t low) {
  const __m256i rot = _mm256_permute4x64_epi64(w.v, 0x90);
  const __m256i lo = _mm256_set1_epi64x(static_cast<long long>(low));
  return Word256(_mm256_blend_epi32(rot, lo, 0x03));
}
#endif

#if SABLE_HAVE_WORD512
// GCC implements unmasked _mm512_alignr_epi64 through the masked builtin
// with an undefined merge source, tripping -Wmaybe-uninitialized at -O2;
// the merge lanes are fully overwritten (mask = all ones), so silence it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
template <>
SABLE_TARGET_AVX512 SABLE_LANE_INLINE Word512
lane_shift_in_chunk<Word512>(const Word512& w, std::uint64_t low) {
  const __m512i lo = _mm512_set1_epi64(static_cast<long long>(low));
  return Word512(_mm512_alignr_epi64(w.v, lo, 7));
}
#pragma GCC diagnostic pop
#endif

// ---- helpers --------------------------------------------------------------

/// Word whose first `count` lanes are set — the one and only source of
/// tail-batch masks. A count outside [1, kLanes] is a kernel bug upstream
/// (phantom traces would be simulated or every lane silently dropped), so
/// it aborts rather than throwing.
template <typename W>
SABLE_LANE_INLINE W lane_mask(std::size_t count) {
  using T = LaneTraits<W>;
  SABLE_ASSERT(count >= 1 && count <= T::kLanes,
               "lane_mask: count must be in [1, lane_count]");
  std::uint64_t chunks[T::kChunks];
  for (std::size_t j = 0; j < T::kChunks; ++j) {
    const std::size_t low = 64 * j;
    chunks[j] = count <= low ? 0
                : count >= low + 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << (count - low)) - 1;
  }
  return lane_from_chunks<W>(chunks);
}

/// True iff any lane bit of `w` is set. Wide instantiations go through the
/// intrinsic trait and must be called from a matching ISA context (they
/// are only reachable from the kernels, which guarantee it).
template <typename W>
SABLE_LANE_INLINE bool lane_any(const W& w) {
  return LaneTraits<W>::any(w);
}

// ---- per-lane double-array helpers ----------------------------------------
//
// The kernels extract per-lane floating-point results by walking a word's
// 64-bit chunks; these three masked-array loops are THE shared walk, so a
// change to tail handling (e.g. AVX-512 mask registers) lands everywhere
// at once. Full chunks take the plain vectorizable loop, sparse chunks
// walk their set bits — bit-identical per lane either way.

/// out[lane] = value for every selected lane of `lane_mask`.
template <typename W>
SABLE_LANE_INLINE void lane_fill_selected(const W& lane_mask, double value,
                                          double* out) {
  using T = LaneTraits<W>;
  std::uint64_t m[T::kChunks];
  lane_chunks(lane_mask, m);
  for (std::size_t j = 0; j < T::kChunks; ++j) {
    double* e = out + 64 * j;
    if (m[j] == ~std::uint64_t{0}) {
      for (std::size_t lane = 0; lane < 64; ++lane) e[lane] = value;
    } else {
      for (std::uint64_t rest = m[j]; rest != 0; rest &= rest - 1) {
        e[std::countr_zero(rest)] = value;
      }
    }
  }
}

/// out[lane] += add[lane] for every selected lane of `lane_mask`.
template <typename W>
SABLE_LANE_INLINE void lane_accumulate_selected(const W& lane_mask,
                                                const double* add,
                                                double* out) {
  using T = LaneTraits<W>;
  std::uint64_t m[T::kChunks];
  lane_chunks(lane_mask, m);
  for (std::size_t j = 0; j < T::kChunks; ++j) {
    const double* a = add + 64 * j;
    double* e = out + 64 * j;
    if (m[j] == ~std::uint64_t{0}) {
      for (std::size_t lane = 0; lane < 64; ++lane) e[lane] += a[lane];
    } else {
      for (std::uint64_t rest = m[j]; rest != 0; rest &= rest - 1) {
        const std::size_t lane = std::countr_zero(rest);
        e[lane] += a[lane];
      }
    }
  }
}

/// out[lane] += delta for every set lane of `lanes`.
template <typename W>
SABLE_LANE_INLINE void lane_add_delta(const W& lanes, double delta,
                                      double* out) {
  using T = LaneTraits<W>;
  std::uint64_t w[T::kChunks];
  lane_chunks(lanes, w);
  for (std::size_t j = 0; j < T::kChunks; ++j) {
    double* e = out + 64 * j;
    for (std::uint64_t rest = w[j]; rest != 0; rest &= rest - 1) {
      e[std::countr_zero(rest)] += delta;
    }
  }
}

/// Lane widths whose kernels are compiled into this binary, ascending.
/// 64 and 128 are always available; 256/512 are carried by the default
/// runtime-dispatch build (not by SABLE_SIMD=OFF).
/// Whether a compiled width can actually run on THIS machine is a runtime
/// question — see runtime_lane_widths() in util/cpu_dispatch.hpp.
inline std::vector<std::size_t> supported_lane_widths() {
  std::vector<std::size_t> widths = {64, 128};
#if SABLE_HAVE_WORD256
  widths.push_back(256);
#endif
#if SABLE_HAVE_WORD512
  widths.push_back(512);
#endif
  return widths;
}

/// Widest lane width compiled into this binary (not necessarily runnable
/// on this CPU — see max_runtime_lane_width() in util/cpu_dispatch.hpp).
constexpr std::size_t max_lane_width() {
#if SABLE_HAVE_WORD512
  return 512;
#elif SABLE_HAVE_WORD256
  return 256;
#else
  return 128;
#endif
}

/// Applies macro X to the portable lane word types — the instantiation
/// list for the base kernel TUs. Word256/512 kernels are instantiated
/// exclusively in src/simd/kernels_avx2.cpp / kernels_avx512.cpp inside
/// their #pragma GCC target regions (one TU per ISA, so no comdat copy of
/// an ISA-specialized symbol can ever be linked into a portable path).
#define SABLE_FOR_EACH_PORTABLE_LANE_WORD(X) X(std::uint64_t) X(::sable::Word128)

/// Applies macro X to every compiled-in lane word type. NOT for kernel
/// instantiations (see above) — only for width-dispatch tables that are
/// themselves compiled portably, like the engine's per-width pools.
#if SABLE_HAVE_WORD512
#define SABLE_FOR_EACH_LANE_WORD(X) \
  X(std::uint64_t) X(::sable::Word128) X(::sable::Word256) X(::sable::Word512)
#elif SABLE_HAVE_WORD256
#define SABLE_FOR_EACH_LANE_WORD(X) \
  X(std::uint64_t) X(::sable::Word128) X(::sable::Word256)
#else
#define SABLE_FOR_EACH_LANE_WORD(X) X(std::uint64_t) X(::sable::Word128)
#endif

}  // namespace sable
