/**
 * @file
 * GpuConfig validation and preset tests.
 */

#include <gtest/gtest.h>

#include "arch/gpu_config.hh"

namespace gqos
{
namespace
{

TEST(GpuConfig, DefaultMatchesTable1)
{
    GpuConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.numSms, 16);
    EXPECT_EQ(cfg.numMemPartitions, 4);
    EXPECT_EQ(cfg.warpSchedulersPerSm, 4);
    EXPECT_EQ(cfg.maxThreadsPerSm, 2048);
    EXPECT_EQ(cfg.maxTbsPerSm, 32);
    EXPECT_EQ(cfg.regFileBytes, 256 * 1024);
    EXPECT_EQ(cfg.sharedMemBytes, 96 * 1024);
    EXPECT_DOUBLE_EQ(cfg.coreFreqGhz, 1.216);
    EXPECT_EQ(cfg.epochLength, 10000u);
    EXPECT_EQ(cfg.iwSamplesPerEpoch, 100);
    EXPECT_NE(cfg.summary().find("(GTO)"), std::string::npos);
}

TEST(GpuConfig, DerivedValues)
{
    GpuConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.regsPerSm(), 65536);
    EXPECT_EQ(cfg.maxWarpsPerSm(), 64);
    EXPECT_EQ(cfg.warpsPerScheduler(), 16);
}

TEST(GpuConfig, LargeConfigMatchesSection46)
{
    GpuConfig cfg = largeConfig();
    EXPECT_EQ(cfg.numSms, 56);
    EXPECT_EQ(cfg.warpSchedulersPerSm, 2);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(GpuConfig, RejectsBadSmCount)
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 0;
    auto r = cfg.check();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("numSms"),
              std::string::npos);
}

TEST(GpuConfig, SmCountFitsOneMaskWord)
{
    GpuConfig cfg = defaultConfig();
    cfg.numSms = 64;
    EXPECT_TRUE(cfg.check().ok());
    cfg.numSms = 65;
    auto r = cfg.check();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("numSms"),
              std::string::npos);
}

TEST(GpuConfig, WarpsPerSmFitOneMaskWord)
{
    GpuConfig cfg = defaultConfig();
    cfg.warpSchedulersPerSm = 1; // any warp count splits evenly
    cfg.maxThreadsPerSm = 2048;  // 64 warps
    EXPECT_TRUE(cfg.check().ok());
    cfg.maxThreadsPerSm = 2080;  // 65 warps
    auto r = cfg.check();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("maxWarpsPerSm"),
              std::string::npos);
    EXPECT_NE(r.error().message().find("64-bit masks"),
              std::string::npos);
}

TEST(GpuConfig, RejectsUnevenSchedulerSplit)
{
    GpuConfig cfg = defaultConfig();
    cfg.warpSchedulersPerSm = 3; // 64 warps do not split by 3
    EXPECT_FALSE(cfg.check().ok());
}

TEST(GpuConfig, RejectsNonWarpMultipleThreads)
{
    GpuConfig cfg = defaultConfig();
    cfg.maxThreadsPerSm = 2050;
    EXPECT_FALSE(cfg.check().ok());
}

// validate() stays the assert-style wrapper for compiled-in
// presets; one death test pins its exit(1) contract.
TEST(GpuConfigDeath, ValidateWrapperIsFatal)
{
    GpuConfig cfg = defaultConfig();
    cfg.dramSlotsPerCycle = 0.0;
    EXPECT_FALSE(cfg.check().ok());
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "");
}

TEST(GpuConfig, ConfigByNameFindsPresets)
{
    auto def = configByName("default");
    ASSERT_TRUE(def.ok());
    EXPECT_EQ(def.value().numSms, 16);
    auto large = configByName("large");
    ASSERT_TRUE(large.ok());
    EXPECT_EQ(large.value().numSms, 56);
    EXPECT_EQ(knownConfigs().size(), 2u);
}

TEST(GpuConfig, ConfigByNameReportsUnknownName)
{
    auto r = configByName("gigantic");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    EXPECT_NE(r.error().message().find("gigantic"),
              std::string::npos);
}

TEST(GpuConfig, SummaryMentionsKeyParams)
{
    std::string s = defaultConfig().summary();
    EXPECT_NE(s.find("16 SMs"), std::string::npos);
    EXPECT_NE(s.find("GTO"), std::string::npos);
}

} // anonymous namespace
} // namespace gqos
