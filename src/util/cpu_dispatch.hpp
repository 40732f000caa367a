// CPU feature probe, for reporting only.
//
// No kernel reads it: every hot loop in the library is one portable body
// that the compiler vectorizes for the baseline ISA, so a campaign's bits
// do not depend on the machine. The probe stays because benchmark output
// records a machine fingerprint (CPU flags and the tier name below).
#pragma once

namespace sable {

/// SIMD capabilities of the executing CPU, probed for machine
/// fingerprints in benchmark output. No flag selects a kernel.
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

/// The tier the library's kernels run at: always kPortable, since there
/// is one body per kernel.
DispatchTier active_tier();

}  // namespace sable
