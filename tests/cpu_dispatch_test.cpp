// CPU feature probe (util/cpu_dispatch): a report-only probe whose flags
// nest as on every real part and are cached, tier naming, the one tier
// the library runs at, and the machine-independent campaign lane width.
#include <gtest/gtest.h>

#include <cstdint>

#include "engine/trace_engine.hpp"
#include "util/cpu_dispatch.hpp"
#include "util/lane_word.hpp"

namespace sable {
namespace {

TEST(CpuDispatchTest, TiersAreOrderedAndNamed) {
  EXPECT_LT(static_cast<int>(DispatchTier::kPortable),
            static_cast<int>(DispatchTier::kAvx2));
  EXPECT_LT(static_cast<int>(DispatchTier::kAvx2),
            static_cast<int>(DispatchTier::kAvx512));
  EXPECT_STREQ(to_string(DispatchTier::kPortable), "portable");
  EXPECT_STREQ(to_string(DispatchTier::kAvx2), "avx2");
  EXPECT_STREQ(to_string(DispatchTier::kAvx512), "avx512");
}

// Every kernel is one portable body, whatever the CPU has.
TEST(CpuDispatchTest, ActiveTierIsPortable) {
  EXPECT_EQ(active_tier(), DispatchTier::kPortable);
}

// The flags are probed for reporting only: no kernel reads them. On every
// real part the AVX-512 extensions are nested — BW requires F, VBMI
// requires BW — and every AVX-512F part has AVX2, so a probe that breaks
// the nesting is misreading CPUID. GFNI carries no such implication: it
// has SSE/AVX encodings.
TEST(CpuDispatchTest, FeatureFlagsAreNestedAndCached) {
  const CpuFeatures& features = cpu_features();
  if (features.avx512vbmi) EXPECT_TRUE(features.avx512bw);
  if (features.avx512bw) EXPECT_TRUE(features.avx512f);
  if (features.avx512f) EXPECT_TRUE(features.avx2);
#if !defined(__x86_64__) && !defined(__i386__)
  EXPECT_FALSE(features.avx2);
  EXPECT_FALSE(features.avx512f);
  EXPECT_FALSE(features.avx512bw);
  EXPECT_FALSE(features.avx512vbmi);
  EXPECT_FALSE(features.gfni);
#endif
  // The probe is cached: every call returns the same object.
  EXPECT_EQ(&cpu_features(), &features);
}

// campaign_lane_width is a forward to the widest compiled pack width,
// Word128 on every machine: no campaign option or style changes it.
TEST(CpuDispatchTest, CampaignLaneWidthIsTheWidestCompiledWidth) {
  EXPECT_EQ(supported_lane_widths().back(), std::size_t{128});
  CampaignOptions options;
  options.num_threads = 3;
  for (LogicStyle style :
       {LogicStyle::kStaticCmos, LogicStyle::kSablGenuine,
        LogicStyle::kSablFullyConnected, LogicStyle::kSablEnhanced,
        LogicStyle::kWddlBalanced, LogicStyle::kWddlMismatched}) {
    EXPECT_EQ(campaign_lane_width(options, style), std::size_t{128})
        << to_string(style);
  }
}

}  // namespace
}  // namespace sable
