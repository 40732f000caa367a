#include "util/cpu_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/lane_word.hpp"

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

DispatchTier compiled_tier() {
#if SABLE_HAVE_WORD512
  return DispatchTier::kAvx512;
#elif SABLE_HAVE_WORD256
  return DispatchTier::kAvx2;
#else
  return DispatchTier::kPortable;
#endif
}

DispatchTier detected_tier() {
  const CpuFeatures& f = cpu_features();
  if (f.avx512f) return DispatchTier::kAvx512;
  if (f.avx2) return DispatchTier::kAvx2;
  return DispatchTier::kPortable;
}

namespace {

DispatchTier initial_cap_from_env() {
  const char* value = std::getenv("SABLE_DISPATCH");
  if (value == nullptr || *value == '\0') return DispatchTier::kAvx512;
  if (std::strcmp(value, "portable") == 0) return DispatchTier::kPortable;
  if (std::strcmp(value, "avx2") == 0) return DispatchTier::kAvx2;
  if (std::strcmp(value, "avx512") == 0) return DispatchTier::kAvx512;
  throw InvalidArgument(std::string("SABLE_DISPATCH must be one of "
                                    "portable|avx2|avx512, got \"") +
                        value + "\"");
}

std::atomic<DispatchTier>& tier_cap_slot() {
  static std::atomic<DispatchTier> cap{initial_cap_from_env()};
  return cap;
}

}  // namespace

DispatchTier set_dispatch_tier_cap(DispatchTier cap) {
  return tier_cap_slot().exchange(cap, std::memory_order_relaxed);
}

DispatchTier dispatch_tier_cap() {
  return tier_cap_slot().load(std::memory_order_relaxed);
}

DispatchTier active_tier() {
  DispatchTier tier = compiled_tier();
  const DispatchTier detected = detected_tier();
  if (detected < tier) tier = detected;
  const DispatchTier cap = dispatch_tier_cap();
  if (cap < tier) tier = cap;
  return tier;
}

}  // namespace sable
