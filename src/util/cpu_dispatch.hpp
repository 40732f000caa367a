// Runtime CPU dispatch for the SIMD kernels.
//
// The default build (SABLE_SIMD=RUNTIME) compiles portable, AVX2 and
// AVX-512 bodies of one kernel family into one binary: the corpus
// codec's 64×64 bit transposes (bit_transpose_blocks). Every body
// produces bit-identical results. Everything else — lane packing, the
// distinguishers' block statistics — is plain portable code that reads
// no tier. This header is how a call decides, once per call, which
// transpose body this machine may run:
//
//   cpu_features()   cached CPUID probe (what the CPU has)
//   compiled_tier()  widest tier whose kernels are in this binary
//   active_tier()    min(compiled, detected, cap) — what dispatch uses
//
// The cap exists for pinning and testing: the SABLE_DISPATCH environment
// variable (`portable` | `avx2` | `avx512`, read once at first use) caps a
// whole process, and ScopedDispatchTierCap caps a scope so the test suite
// can prove bit-identity of the same campaign across tiers on one machine.
#pragma once

namespace sable {

/// SIMD capabilities of the executing CPU. avx2/avx512f pick the dispatch
/// tier; the sub-tier flags (avx512bw, avx512vbmi, gfni) select no kernel
/// and are probed for reporting only (machine fingerprints in benchmark
/// output).
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vbmi = false;
  bool gfni = false;
};

/// The executing CPU's features, probed once and cached (thread-safe).
const CpuFeatures& cpu_features();

/// Kernel ISA tiers, ordered: a tier can run everything below it.
enum class DispatchTier { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("portable", "avx2", "avx512") for logs/JSON.
const char* to_string(DispatchTier tier);

/// Widest tier whose kernel instantiations are compiled into this binary:
/// kAvx512 (or kAvx2) for the default SABLE_SIMD=RUNTIME build, kPortable
/// for SABLE_SIMD=OFF or a compiler without multi-ISA support.
DispatchTier compiled_tier();

/// Widest tier the executing CPU supports, independent of what was built.
DispatchTier detected_tier();

/// The tier dispatch actually uses: min(compiled, detected, cap).
DispatchTier active_tier();

/// Caps active_tier() at `cap` for the whole process and returns the
/// previous cap; kAvx512 means "uncapped". The initial cap comes from the
/// SABLE_DISPATCH environment variable (unset → uncapped). Engines consult
/// the cap per campaign/shard, so changing it mid-campaign has no effect
/// on traces already streaming.
DispatchTier set_dispatch_tier_cap(DispatchTier cap);

/// Currently effective cap (kAvx512 when uncapped).
DispatchTier dispatch_tier_cap();

/// RAII tier cap for tests: forces campaigns in scope onto a lower tier,
/// restores the previous cap on destruction.
class ScopedDispatchTierCap {
 public:
  explicit ScopedDispatchTierCap(DispatchTier cap)
      : prev_(set_dispatch_tier_cap(cap)) {}
  ~ScopedDispatchTierCap() { set_dispatch_tier_cap(prev_); }
  ScopedDispatchTierCap(const ScopedDispatchTierCap&) = delete;
  ScopedDispatchTierCap& operator=(const ScopedDispatchTierCap&) = delete;

 private:
  DispatchTier prev_;
};

}  // namespace sable
