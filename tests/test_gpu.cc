/**
 * @file
 * Top-level GPU tests: TB-target convergence, grid relaunch,
 * preemption requeue, metric accounting and the quota version.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/gpu.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

TEST(Gpu, DispatcherConvergesToTargets)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    d.gridTbs = 2000;
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 4);
    test::drive(gpu, 2000);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_EQ(gpu.residentTbs(s, 0), 4);
    EXPECT_EQ(gpu.totalResidentTbs(0), 4 * gpu.numSms());
}

TEST(Gpu, ShrinkingTargetPreempts)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    d.gridTbs = 2000;
    d.warpInstrPerTb = 100000; // long TBs: only preemption shrinks
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 6);
    test::drive(gpu, 3000);
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 2);
    test::drive(gpu, 30000);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_EQ(gpu.residentTbs(s, 0), 2);
    EXPECT_GT(gpu.dispatchState(0).preemptedTbs, 0u);
}

TEST(Gpu, GridRelaunchesWhenComplete)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    d.gridTbs = 32; // small grid: finishes quickly
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 8);
    test::drive(gpu, 120000);
    const auto &ds = gpu.dispatchState(0);
    EXPECT_GT(ds.launches, 2u);
    // Every completed launch retired exactly gridTbs TBs.
    EXPECT_GE(ds.completedTbs,
              (ds.launches - 1) * static_cast<std::uint64_t>(32));
    EXPECT_GT(gpu.ipc(0), 0.0);
}

TEST(Gpu, PreemptedWorkIsRequeued)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    d.gridTbs = 64;
    d.warpInstrPerTb = 50000;
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 4);
    test::drive(gpu, 2000);
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, 1);
    test::drive(gpu, 30000);
    const auto &ds = gpu.dispatchState(0);
    EXPECT_GT(ds.preemptedTbs, 0u);
    // Preempted TBs return to the pending pool: dispatched-but-not-
    // finished work is never lost.
    EXPECT_EQ(ds.liveTbs, gpu.totalResidentTbs(0));
}

TEST(Gpu, MultiKernelAccountingIsIndependent)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc a = test::tinyComputeKernel("a");
    KernelDesc b = test::tinyMemoryKernel("b");
    gpu.launch({&a, &b});
    for (int s = 0; s < gpu.numSms(); ++s) {
        gpu.setTbTarget(s, 0, 4);
        gpu.setTbTarget(s, 1, 4);
    }
    test::drive(gpu, 40000);
    EXPECT_GT(gpu.threadInstrs(0), 0u);
    EXPECT_GT(gpu.threadInstrs(1), 0u);
    EXPECT_GT(gpu.ipc(0), gpu.ipc(1)); // compute beats memory
}

TEST(Gpu, QuotaGatingAllTogglesEverySm)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    gpu.launch({&d});
    gpu.setQuotaGatingAll(true);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_TRUE(gpu.sm(s).quotaGating());
    gpu.setQuotaGatingAll(false);
    for (int s = 0; s < gpu.numSms(); ++s)
        EXPECT_FALSE(gpu.sm(s).quotaGating());
}

/**
 * Step @p gpu @p cycles times and check that every step moves
 * Gpu::quotaVersion() by exactly its count of quota inputs: TB
 * dispatches, TB frees (completion or preemption) and quota
 * crossings from > 0 to <= 0. Returns the crossings seen; @p
 * multi_retire_crossings counts crossing steps on which the SM
 * retired more warp instructions past the crossing.
 */
int
stepCheckingQuotaVersion(Gpu &gpu, Cycle cycles,
                         int *multi_retire_crossings = nullptr)
{
    auto tb_events = [&] {
        std::uint64_t n = 0;
        for (KernelId k = 0; k < gpu.numKernels(); ++k) {
            const KernelDispatchState &ds = gpu.dispatchState(k);
            // Dispatches (live + exited) plus exits.
            n += static_cast<std::uint64_t>(ds.liveTbs) +
                 2 * (ds.completedTbs + ds.preemptedTbs);
        }
        return n;
    };
    int crossings = 0;
    for (Cycle c = 0; c < cycles; ++c) {
        std::vector<double> quota;
        std::vector<std::uint64_t> warps;
        for (int s = 0; s < gpu.numSms(); ++s) {
            quota.push_back(gpu.sm(s).quota(0));
            warps.push_back(gpu.sm(s).kernelStats(0).warpInstrs);
        }
        std::uint64_t events = tb_events();
        std::uint64_t v = gpu.quotaVersion();
        gpu.step();
        std::uint64_t expected = tb_events() - events;
        for (int s = 0; s < gpu.numSms(); ++s) {
            if (quota[s] > 0.0 && gpu.sm(s).quota(0) <= 0.0) {
                expected++;
                crossings++;
                if (multi_retire_crossings &&
                    gpu.sm(s).kernelStats(0).warpInstrs - warps[s] > 1)
                    ++*multi_retire_crossings;
            }
        }
        EXPECT_EQ(gpu.quotaVersion() - v, expected)
            << "cycle " << gpu.now() - 1;
    }
    return crossings;
}

TEST(Gpu, QuotaVersionMovesExactlyOnQuotaInputs)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    d.gridTbs = 2000;
    std::uint64_t v = gpu.quotaVersion();
    gpu.launch({&d}); // bindKernels on every SM
    EXPECT_EQ(gpu.quotaVersion(), v + gpu.numSms());
    v = gpu.quotaVersion();
    gpu.setQuotaGatingAll(true);
    EXPECT_EQ(gpu.quotaVersion(), v + gpu.numSms());
    for (int s = 0; s < gpu.numSms(); ++s) {
        v = gpu.quotaVersion();
        gpu.sm(s).setQuota(0, 1e9);
        EXPECT_EQ(gpu.quotaVersion(), v + 1);
        gpu.sm(s).addQuota(0, 1.0);
        EXPECT_EQ(gpu.quotaVersion(), v + 2);
        gpu.setTbTarget(s, 0, 2);
    }

    // Dispatches and completions; every retire keeps the quota
    // above zero and moves nothing.
    EXPECT_EQ(stepCheckingQuotaVersion(gpu, 6000), 0);
    EXPECT_GT(gpu.dispatchState(0).completedTbs, 0u);

    // A quota of one lane: the first retire crosses zero, later
    // retires of the same cycle keep it below, and only the
    // crossing counts.
    int multi = 0;
    for (int s = 0; s < gpu.numSms(); ++s) {
        for (int round = 0; round < 4; ++round) {
            gpu.sm(s).setQuota(0, 1.0);
            stepCheckingQuotaVersion(gpu, 50, &multi);
        }
    }
    EXPECT_GT(multi, 0);

    // Shrinking targets drains TBs: each preemption's free moves
    // the version.
    for (int s = 0; s < gpu.numSms(); ++s) {
        gpu.sm(s).setQuota(0, 1e9);
        gpu.setTbTarget(s, 0, 1);
    }
    stepCheckingQuotaVersion(gpu, 3000);
    EXPECT_GT(gpu.dispatchState(0).preemptedTbs, 0u);

    // Every SM gated with TBs resident: parked steps, skipTo() and
    // the settles that apply their spans count gated cycles but
    // leave the version alone. SM 0 is read after 8 more parked
    // steps than the others.
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.sm(s).setQuota(0, -1.0);
    stepCheckingQuotaVersion(gpu, 1);
    v = gpu.quotaVersion();
    for (int i = 0; i < 2000; ++i)
        gpu.step(true);
    EXPECT_GT(gpu.smSkippedCycles(), 0u);
    EXPECT_EQ(gpu.nextEventAt(), cycleNever);
    std::vector<std::uint64_t> gated;
    for (int s = 0; s < gpu.numSms(); ++s)
        gated.push_back(gpu.sm(s).kernelStats(0).gatedCycles);
    gpu.skipTo(gpu.now() + 5000);
    std::vector<std::uint64_t> after(gpu.numSms());
    for (int s = 1; s < gpu.numSms(); ++s)
        after[s] = gpu.sm(s).kernelStats(0).gatedCycles;
    std::uint64_t smSkipped = gpu.smSkippedCycles();
    for (int i = 0; i < 8; ++i)
        gpu.step(true);
    EXPECT_EQ(gpu.smSkippedCycles(), smSkipped + 8u * gpu.numSms());
    after[0] = gpu.sm(0).kernelStats(0).gatedCycles;
    for (int s = 0; s < gpu.numSms(); ++s) {
        EXPECT_EQ(after[s], gated[s] + 5000 + (s == 0 ? 8 : 0));
    }
    EXPECT_EQ(gpu.quotaVersion(), v);
}

TEST(GpuDeath, LaunchRejectsTooManyKernels)
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu(cfg);
    KernelDesc d = test::tinyComputeKernel();
    std::vector<const KernelDesc *> many(maxKernels + 1, &d);
    EXPECT_EXIT(gpu.launch(many), ::testing::ExitedWithCode(1), "");
}

TEST(Gpu, DeterministicAcrossRuns)
{
    auto once = [] {
        GpuConfig cfg = defaultConfig();
        Gpu gpu(cfg);
        KernelDesc a = test::tinyComputeKernel("a");
        KernelDesc b = test::tinyMemoryKernel("b");
        gpu.launch({&a, &b});
        for (int s = 0; s < gpu.numSms(); ++s) {
            gpu.setTbTarget(s, 0, 3);
            gpu.setTbTarget(s, 1, 3);
        }
        test::drive(gpu, 25000);
        return std::pair{gpu.threadInstrs(0), gpu.threadInstrs(1)};
    };
    EXPECT_EQ(once(), once());
}

} // anonymous namespace
} // namespace gqos
