// The Montgomery kernel ladder: two tiers, scalar and adx, with names that
// round-trip, a CPU clamp that follows the detected features, and an
// override that pins and restores the dispatched tier.

#include "common/cpuinfo.h"

#include <gtest/gtest.h>

namespace embellish {
namespace {

TEST(CpuInfoTest, KernelFromNameAcceptsOnlyTheTwoTiers) {
  MontKernel kernel = MontKernel::kAdx;
  ASSERT_TRUE(KernelFromName("scalar", &kernel));
  EXPECT_EQ(kernel, MontKernel::kScalar);
  ASSERT_TRUE(KernelFromName("adx", &kernel));
  EXPECT_EQ(kernel, MontKernel::kAdx);

  // The deleted SIMD tiers are unrecognized names now, like any typo; the
  // parser is exact, so case matters.
  for (const char* name : {"avx2", "ifma", "", "ADX"}) {
    SCOPED_TRACE(name);
    kernel = MontKernel::kAdx;
    EXPECT_FALSE(KernelFromName(name, &kernel));
    EXPECT_EQ(kernel, MontKernel::kAdx) << "a rejected name must not write";
  }
  EXPECT_FALSE(KernelFromName(nullptr, &kernel));
  EXPECT_FALSE(KernelFromName("adx", nullptr));
}

TEST(CpuInfoTest, KernelNameRoundTrips) {
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx}) {
    MontKernel parsed;
    ASSERT_TRUE(KernelFromName(KernelName(kernel), &parsed));
    EXPECT_EQ(parsed, kernel);
  }
}

TEST(CpuInfoTest, ClampFollowsDetectedFeatures) {
  const CpuFeatures& f = GetCpuFeatures();
  const bool has_adx = f.adx && f.bmi2;
  EXPECT_LE(MaxSupportedKernel(), MontKernel::kAdx);
  EXPECT_EQ(MaxSupportedKernel(),
            has_adx ? MontKernel::kAdx : MontKernel::kScalar);
  EXPECT_EQ(ClampToCpu(MontKernel::kAdx) == MontKernel::kAdx, has_adx);
  EXPECT_EQ(ClampToCpu(MontKernel::kScalar), MontKernel::kScalar);
}

TEST(CpuInfoTest, OverridePinsAndRestoresTheSelectedTier) {
  const MontKernel restore = SelectedKernel();
  EXPECT_LE(restore, MaxSupportedKernel());

  EXPECT_EQ(SetKernelOverride(MontKernel::kScalar), restore);
  EXPECT_EQ(SelectedKernel(), MontKernel::kScalar);

  // A request above the CPU clamps rather than failing.
  EXPECT_EQ(SetKernelOverride(MontKernel::kAdx), MontKernel::kScalar);
  EXPECT_EQ(SelectedKernel(), ClampToCpu(MontKernel::kAdx));

  EXPECT_EQ(SetKernelOverride(restore), ClampToCpu(MontKernel::kAdx));
  EXPECT_EQ(SelectedKernel(), restore);
}

}  // namespace
}  // namespace embellish
