/**
 * @file
 * SM-core tests: TB dispatch and resource accounting, execution
 * progress, EWS quota gating, preemption, idle-warp sampling and
 * determinism.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

struct SmFixture : public ::testing::Test
{
    SmFixture()
        : cfg(defaultConfig()),
          descC(test::tinyComputeKernel()),
          descM(test::tinyMemoryKernel()),
          mem(cfg),
          sm(cfg, 0, mem),
          runC(descC, 0, cfg),
          runM(descM, 1, cfg)
    {
        sm.bindKernels({&runC, &runM});
        sm.setTbEventCallback(
            [this](SmId, KernelId k, TbExit e) {
                if (e == TbExit::Completed)
                    completed[k]++;
                else
                    preempted[k]++;
            });
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            bool sample = (now % 100) == 0;
            sm.cycle(now, sample);
            now++;
        }
    }

    GpuConfig cfg;
    KernelDesc descC, descM;
    MemSystem mem;
    SmCore sm;
    KernelRun runC, runM;
    Cycle now = 0;
    int completed[2] = {0, 0};
    int preempted[2] = {0, 0};
};

TEST_F(SmFixture, DispatchConsumesResources)
{
    EXPECT_TRUE(sm.canAccept(0));
    EXPECT_TRUE(sm.dispatchTb(0, 0, 0, now));
    EXPECT_EQ(sm.residentTbs(0), 1);
    EXPECT_EQ(sm.threadsUsed(), descC.threadsPerTb);
}

TEST_F(SmFixture, CanAcceptHonoursThreadLimit)
{
    int fits = 0;
    while (sm.canAccept(0) && fits < 64) {
        sm.dispatchTb(0, fits, fits, now);
        fits++;
    }
    EXPECT_EQ(fits, descC.maxTbsPerSm(cfg));
    EXPECT_FALSE(sm.canAccept(0));
}

TEST_F(SmFixture, WarpsExecuteAndTbCompletes)
{
    sm.dispatchTb(0, 0, 0, now);
    run(100000);
    EXPECT_GE(completed[0], 1);
    EXPECT_EQ(sm.residentTbs(0), 0);
    EXPECT_EQ(sm.threadsUsed(), 0);
    // Exactly warpInstrPerTb instructions per warp were retired.
    EXPECT_EQ(sm.kernelStats(0).warpInstrs,
              static_cast<std::uint64_t>(completed[0]) *
                  descC.warpsPerTb() * descC.warpInstrPerTb);
}

TEST_F(SmFixture, ThreadInstrsCountLanes)
{
    sm.dispatchTb(0, 0, 0, now);
    run(30000);
    const auto &st = sm.kernelStats(0);
    EXPECT_GT(st.threadInstrs, st.warpInstrs);
    EXPECT_LE(st.threadInstrs, st.warpInstrs * 32);
}

TEST_F(SmFixture, QuotaGatingStopsExhaustedKernel)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.setQuotaGating(true);
    sm.setQuota(0, 3200.0); // 100 warp instructions' worth
    run(20000);
    std::uint64_t instrs = sm.kernelStats(0).threadInstrs;
    EXPECT_GE(instrs, 3200u);
    EXPECT_LE(instrs, 3200u + 32);
    EXPECT_TRUE(sm.allQuotasExhausted());
    EXPECT_LE(sm.quota(0), 0.0);
    // Refilling resumes execution.
    sm.addQuota(0, 3200.0);
    EXPECT_FALSE(sm.allQuotasExhausted());
    run(20000);
    EXPECT_GT(sm.kernelStats(0).threadInstrs, instrs);
}

TEST_F(SmFixture, GatingOffIgnoresQuota)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.setQuotaGating(false);
    sm.setQuota(0, 32.0);
    run(20000);
    EXPECT_GT(sm.kernelStats(0).threadInstrs, 10000u);
}

TEST_F(SmFixture, AllQuotasExhaustedIgnoresAbsentKernels)
{
    sm.setQuotaGating(true);
    sm.dispatchTb(0, 0, 0, now);
    sm.setQuota(0, -1.0);
    sm.setQuota(1, 1000.0); // kernel 1 has no TBs resident
    EXPECT_TRUE(sm.allQuotasExhausted());
}

TEST_F(SmFixture, PreemptionFreesResourcesAndReports)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.dispatchTb(0, 1, 1, now);
    run(100);
    EXPECT_TRUE(sm.startPreemption(0, now));
    EXPECT_TRUE(sm.preemptionPending());
    run(5000);
    EXPECT_FALSE(sm.preemptionPending());
    EXPECT_EQ(preempted[0], 1);
    EXPECT_EQ(sm.residentTbs(0), 1);
    EXPECT_EQ(sm.stats().preemptions, 1u);
}

TEST_F(SmFixture, PreemptionPicksYoungestTb)
{
    descC.warpInstrPerTb = 100000; // long TB: stays resident
    KernelRun long_run(descC, 0, cfg);
    sm.bindKernels({&long_run, &runM});
    sm.dispatchTb(0, 0, 0, now);
    run(40000); // TB 0 makes progress
    sm.dispatchTb(0, 50, 1, now);
    std::uint64_t instr_before = sm.kernelStats(0).threadInstrs;
    sm.startPreemption(0, now);
    run(5000);
    // The older TB keeps executing through the drain.
    EXPECT_GT(sm.kernelStats(0).threadInstrs, instr_before);
    EXPECT_EQ(sm.residentTbs(0), 1);
}

TEST_F(SmFixture, PreemptAllDrainsEverything)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.dispatchTb(1, 1, 0, now);
    sm.preemptAll(now);
    run(8000);
    EXPECT_EQ(sm.totalResidentTbs(), 0);
    EXPECT_EQ(preempted[0] + preempted[1], 2);
}

TEST_F(SmFixture, NoVictimNoPreemption)
{
    EXPECT_FALSE(sm.startPreemption(0, now));
}

TEST_F(SmFixture, IdleWarpSamplingTracksGating)
{
    descC.warpInstrPerTb = 100000; // long TB: stays resident
    KernelRun long_run(descC, 0, cfg);
    sm.bindKernels({&long_run, &runM});
    sm.dispatchTb(0, 0, 0, now);
    sm.setQuotaGating(true);
    sm.setQuota(0, 1e18);
    run(10000);
    sm.resetIwSamples();
    sm.setQuota(0, -1.0); // fully gated: all ready warps idle
    run(5000);
    EXPECT_GT(sm.iwAverage(0), 1.0);
    EXPECT_GT(sm.gatedFraction(0), 0.9);
}

TEST_F(SmFixture, GatedFractionZeroWhenUngated)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.setQuotaGating(true);
    sm.setQuota(0, 1e18);
    sm.resetIwSamples();
    run(5000);
    EXPECT_DOUBLE_EQ(sm.gatedFraction(0), 0.0);
}

TEST_F(SmFixture, TwoKernelsShareTheSm)
{
    sm.dispatchTb(0, 0, 0, now);
    sm.dispatchTb(1, 1, 0, now);
    run(30000);
    EXPECT_GT(sm.kernelStats(0).threadInstrs, 0u);
    EXPECT_GT(sm.kernelStats(1).threadInstrs, 0u);
}

TEST(SmCoreDeterminism, SameSeedSameExecution)
{
    auto run_once = [](std::uint64_t seed) {
        GpuConfig cfg = defaultConfig();
        cfg.seed = seed;
        KernelDesc d = test::tinyMemoryKernel();
        MemSystem mem(cfg);
        SmCore sm(cfg, 0, mem);
        KernelRun run(d, 0, cfg);
        sm.bindKernels({&run});
        sm.dispatchTb(0, 0, 0, 0);
        sm.dispatchTb(0, 1, 1, 0);
        for (Cycle c = 0; c < 30000; ++c)
            sm.cycle(c, false);
        return sm.kernelStats(0).threadInstrs;
    };
    EXPECT_EQ(run_once(11), run_once(11));
    EXPECT_NE(run_once(11), run_once(12));
}

} // anonymous namespace
} // namespace gqos
