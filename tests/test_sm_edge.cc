/**
 * @file
 * Edge-case tests for subtle SM mechanics: wakes beyond the wake
 * wheel's horizon under extreme memory latency, wake cancellation on
 * preemption, per-kernel MSHR fairness caps, and store throttling
 * under interconnect backlog.
 */

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

TEST(SmEdge, WarpsSurviveLatenciesBeyondTheWakeRing)
{
    // Congest DRAM so badly that load latencies run far beyond the
    // wake wheel's horizon; those warps wait on the far path, enter
    // the wheel once their wake comes within the horizon, and must
    // still wake and finish the kernel's work.
    GpuConfig cfg = defaultConfig();
    cfg.dramSlotsPerCycle = 0.02; // pathological bandwidth
    KernelDesc d = test::tinyMemoryKernel();
    d.warpInstrPerTb = 60;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    int done = 0;
    sm.setTbEventCallback(
        [&](SmId, KernelId, TbExit e) {
            if (e == TbExit::Completed)
                done++;
        });
    sm.dispatchTb(0, 0, 0, 0);
    for (Cycle c = 0; c < 400000 && !done; ++c)
        sm.cycle(c, false);
    EXPECT_EQ(done, 1);
}

TEST(SmEdge, MshrCapKeepsComputeKernelAlive)
{
    // A bandwidth-hungry kernel must not monopolize the MSHRs so
    // completely that a co-resident compute kernel's occasional
    // loads starve.
    GpuConfig cfg = defaultConfig();
    KernelDesc mem_kernel = test::tinyMemoryKernel("hog");
    mem_kernel.phases[0].memRatio = 0.5;
    mem_kernel.phases[0].avgTransPerMem = 8.0;
    mem_kernel.phases[0].hotFraction = 0.0;
    mem_kernel.warpInstrPerTb = 1 << 20; // effectively endless
    KernelDesc cmp = test::tinyComputeKernel("light");
    cmp.warpInstrPerTb = 1 << 20;

    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun r0(mem_kernel, 0, cfg), r1(cmp, 1, cfg);
    sm.bindKernels({&r0, &r1});
    for (int i = 0; i < 6; ++i)
        sm.dispatchTb(0, i, i, 0);
    sm.dispatchTb(1, 100, 0, 0);
    for (Cycle c = 0; c < 60000; ++c)
        sm.cycle(c, false);
    // The compute kernel has ~2% mem instructions; without the
    // MSHR reserve its loads starve behind the hog's misses and its
    // rate collapses by an order of magnitude (to the low hundreds
    // per warp over this window).
    double cmp_per_warp =
        static_cast<double>(sm.kernelStats(1).warpInstrs) /
        cmp.warpsPerTb();
    EXPECT_GT(cmp_per_warp, 1500.0); // > ~0.025 instr/warp/cycle
}

TEST(SmEdge, StoreHeavyKernelIsThrottledNotUnbounded)
{
    // A store-only kernel must not outrun the memory system: the
    // interconnect-backlog throttle has to bound in-flight traffic.
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyMemoryKernel("storer");
    d.phases[0].memRatio = 0.6;
    d.phases[0].storeFraction = 1.0;
    d.phases[0].hotFraction = 0.0;
    d.warpInstrPerTb = 1 << 20;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    for (int i = 0; i < 8; ++i)
        sm.dispatchTb(0, i, i, 0);
    for (Cycle c = 0; c < 30000; ++c)
        sm.cycle(c, false);
    // Backlog stays bounded near the throttle threshold.
    EXPECT_LT(mem.interconnect().backlog(30000.0), 2000.0);
    EXPECT_GT(sm.stats().issuedStores, 100u);
}

TEST(SmEdge, DrainingTbDoesNotIssue)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    d.warpInstrPerTb = 1 << 20;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    sm.dispatchTb(0, 0, 0, 0);
    Cycle now = 0;
    for (; now < 2000; ++now)
        sm.cycle(now, false);
    sm.startPreemption(0, now);
    std::uint64_t at_preempt = sm.kernelStats(0).warpInstrs;
    // Drain window: the sole (draining) TB must not issue anything.
    for (Cycle c = 0; c < 200; ++c)
        sm.cycle(now++, false);
    EXPECT_EQ(sm.kernelStats(0).warpInstrs, at_preempt);
}

TEST(SmEdge, ZeroQuotaBlocksFromTheFirstCycle)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    sm.setQuotaGating(true);
    sm.setQuota(0, 0.0);
    sm.dispatchTb(0, 0, 0, 0);
    for (Cycle c = 0; c < 5000; ++c)
        sm.cycle(c, false);
    EXPECT_EQ(sm.kernelStats(0).threadInstrs, 0u);
}

TEST(SmEdge, ReusedWarpSlotsStartClean)
{
    // Complete a TB, dispatch another into the same slots, and
    // check the second TB retires exactly its own budget (stale
    // wake entries must not corrupt it).
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    d.warpInstrPerTb = 500;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    int done = 0;
    sm.setTbEventCallback(
        [&](SmId, KernelId, TbExit) { done++; });
    Cycle now = 0;
    for (int round = 0; round < 3; ++round) {
        sm.dispatchTb(0, round, round, now);
        for (Cycle c = 0; c < 60000 && done == round; ++c)
            sm.cycle(now++, false);
    }
    EXPECT_EQ(done, 3);
    EXPECT_EQ(sm.kernelStats(0).warpInstrs,
              3u * d.warpsPerTb() * d.warpInstrPerTb);
}

/**
 * Preempt a memory TB while its loads are in flight, then dispatch a
 * new TB into the same warp slots. The drained warps' pending wakes
 * must have been cancelled: a leftover one would let a draining warp
 * issue, wake a new warp before its dispatch latency, or corrupt the
 * new TB's instruction count.
 * Parameter: DRAM slots per cycle (0 = default). At 0.02 the loads
 * wait beyond the wake wheel's horizon, so preemption cancels far
 * wakes as well as wheel wakes.
 */
class PreemptedSlotReuse : public ::testing::TestWithParam<double>
{
};

TEST_P(PreemptedSlotReuse, NewTbWaitsItsDispatchLatencyAndRetiresItsBudget)
{
    GpuConfig cfg = defaultConfig();
    if (GetParam() > 0.0)
        cfg.dramSlotsPerCycle = GetParam();
    // 16 warps streaming cold lines, mostly loads of 4 transactions:
    // at 0.02 DRAM slots per cycle their queue runs past the wheel.
    KernelDesc d = test::tinyMemoryKernel();
    d.threadsPerTb = 512;
    d.warpInstrPerTb = 300;
    d.phases[0].memRatio = 0.9;
    d.phases[0].avgTransPerMem = 4.0;
    d.phases[0].hotFraction = 0.0;
    MemSystem mem(cfg);
    SmCore sm(cfg, 0, mem);
    KernelRun run(d, 0, cfg);
    sm.bindKernels({&run});
    int preempted = 0;
    int completed = 0;
    sm.setTbEventCallback(
        [&](SmId, KernelId, TbExit e) {
            (e == TbExit::Preempted ? preempted : completed)++;
        });

    sm.dispatchTb(0, 0, 0, 0);
    Cycle now = 0;
    // Run until loads are outstanding, then preempt mid-flight.
    for (; now < 400; ++now)
        sm.cycle(now, false);
    ASSERT_GT(sm.stats().issuedLoads, 0u);
    ASSERT_EQ(completed, 0);
    ASSERT_TRUE(sm.startPreemption(0, now));
    // The only TB is draining, so nothing may issue until it exits.
    for (Cycle end = now + 400000; now < end && !preempted; ++now)
        ASSERT_FALSE(sm.cycle(now, false)) << "issued at cycle " << now;
    ASSERT_EQ(preempted, 1);
    std::uint64_t before = sm.kernelStats(0).warpInstrs;

    const Cycle t = now;
    ASSERT_TRUE(sm.dispatchTb(0, 1, 1, t));
    for (; now < t + 30; ++now)
        EXPECT_FALSE(sm.cycle(now, false)) << "issued at cycle " << now;
    for (Cycle end = now + 400000; now < end && !completed; ++now)
        sm.cycle(now, false);
    ASSERT_EQ(completed, 1);
    EXPECT_EQ(sm.kernelStats(0).warpInstrs - before,
              static_cast<std::uint64_t>(d.warpsPerTb()) *
                  d.warpInstrPerTb);
}

INSTANTIATE_TEST_SUITE_P(Dram, PreemptedSlotReuse,
                         ::testing::Values(0.0, 0.02));

} // anonymous namespace
} // namespace gqos
