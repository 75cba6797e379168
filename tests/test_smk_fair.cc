/**
 * @file
 * SMK fairness-policy tests.
 */

#include <gtest/gtest.h>

#include "policy/smk_fair.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

struct FairFixture : public ::testing::Test
{
    FairFixture()
        : cfg(defaultConfig()),
          a(test::tinyComputeKernel("a")),
          b(test::tinyMemoryKernel("b"))
    {
        a.gridTbs = 6000;
        b.gridTbs = 6000;
    }

    double
    isolated(const KernelDesc &d)
    {
        Gpu gpu(cfg);
        gpu.launch({&d});
        for (int s = 0; s < gpu.numSms(); ++s)
            gpu.setTbTarget(s, 0, d.maxTbsPerSm(cfg));
        test::drive(gpu, 60000);
        return gpu.ipc(0);
    }

    GpuConfig cfg;
    KernelDesc a, b;
};

TEST_F(FairFixture, EqualizesSlowdowns)
{
    double iso_a = isolated(a);
    double iso_b = isolated(b);

    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    SmkFairPolicy fair({iso_a, iso_b}, cfg.epochLength);
    fair.onLaunch(gpu);
    test::drive(gpu, fair, 30 * cfg.epochLength);

    double pa = fair.progress(0);
    double pb = fair.progress(1);
    EXPECT_GT(pa, 0.05);
    EXPECT_GT(pb, 0.05);
    // Slowdowns within 35% of each other at steady state; without
    // fairness control the compute kernel runs ~free while the
    // memory kernel collapses.
    EXPECT_LT(std::abs(pa - pb) / std::max(pa, pb), 0.35);
    EXPECT_GT(fair.fairnessIndex(), 0.95);
}

TEST_F(FairFixture, UnmanagedSharingIsLessFair)
{
    double iso_a = isolated(a);
    double iso_b = isolated(b);

    auto progress_gap = [&](bool managed) {
        Gpu gpu(cfg);
        gpu.launch({&a, &b});
        SmkFairPolicy fair({iso_a, iso_b}, cfg.epochLength);
        fair.onLaunch(gpu);
        if (!managed)
            gpu.setQuotaGatingAll(false); // plain even sharing
        test::drive(gpu, fair, 25 * cfg.epochLength);
        return std::abs(fair.progress(0) - fair.progress(1));
    };
    EXPECT_LT(progress_gap(true), progress_gap(false));
}

TEST_F(FairFixture, FairnessIndexPerfectWhenEqual)
{
    SmkFairPolicy fair({100.0, 100.0}, 10000);
    // Before any epoch completes, progress is all-zero => index 1.
    EXPECT_DOUBLE_EQ(fair.fairnessIndex(), 1.0);
}

TEST_F(FairFixture, RefillLandsTheCycleAfterExhaustion)
{
    cfg.numSms = 2;
    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    // Baselines a quarter of the isolated IPC shrink the fair
    // quotas, so SMs drain (and are refilled) often.
    SmkFairPolicy fair({isolated(a) / 4, isolated(b) / 4},
                       cfg.epochLength);
    fair.onLaunch(gpu);
    EXPECT_GT(test::checkGrantLatency(gpu, fair, {0, 1},
                                      6 * cfg.epochLength), 10);
}

TEST(SmkFairDeath, RejectsNonPositiveBaselines)
{
    EXPECT_EXIT(SmkFairPolicy({100.0, 0.0}, 10000),
                ::testing::ExitedWithCode(1), "");
}

} // anonymous namespace
} // namespace gqos
