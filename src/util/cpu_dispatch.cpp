#include "util/cpu_dispatch.hpp"

#include "util/error.hpp"

namespace sable {

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    f.avx512f = __builtin_cpu_supports("avx512f") != 0;
    f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
    f.avx512vbmi = __builtin_cpu_supports("avx512vbmi") != 0;
    f.gfni = __builtin_cpu_supports("gfni") != 0;
#endif
    return f;
  }();
  return features;
}

const char* to_string(DispatchTier tier) {
  switch (tier) {
    case DispatchTier::kPortable:
      return "portable";
    case DispatchTier::kAvx2:
      return "avx2";
    case DispatchTier::kAvx512:
      return "avx512";
  }
  SABLE_ASSERT(false, "unreachable dispatch tier");
}

DispatchTier active_tier() { return DispatchTier::kPortable; }

}  // namespace sable
