/**
 * @file
 * Quota-controller tests: per-scheme carry rules, history-based
 * adjustment, the non-QoS goal search, mid-epoch refills, elastic
 * restarts, Rollover-Time blocking, and the one-cycle latency of
 * refills, releases and restarts.
 */

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "policy/fine_grain_qos.hh"
#include "qos/quota_controller.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

struct QuotaFixture : public ::testing::Test
{
    QuotaFixture()
        : cfg(defaultConfig()),
          a(test::tinyComputeKernel("a")),
          b(test::tinyMemoryKernel("b"))
    {
        a.gridTbs = 4000;
        b.gridTbs = 4000;
    }

    std::unique_ptr<Gpu>
    makeGpu()
    {
        auto gpu = std::make_unique<Gpu>(cfg);
        gpu->launch({&a, &b});
        for (int s = 0; s < gpu->numSms(); ++s) {
            gpu->setTbTarget(s, 0, 6);
            gpu->setTbTarget(s, 1, 6);
        }
        return gpu;
    }

    void
    drive(Gpu &gpu, QuotaController &qc, Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            qc.onCycle(gpu);
            gpu.step();
        }
    }

    GpuConfig cfg;
    KernelDesc a, b;
};

TEST_F(QuotaFixture, GatingIsEnabledOnLaunch)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(500.0), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    EXPECT_TRUE(gpu->sm(0).quotaGating());
    // Initial QoS quota is distributed over the SMs.
    double total = 0;
    for (int s = 0; s < gpu->numSms(); ++s)
        total += gpu->sm(s).quota(0);
    EXPECT_NEAR(total,
                500.0 * QuotaController::goalMargin *
                    cfg.epochLength, 1.0);
}

TEST_F(QuotaFixture, QosKernelThrottledAtQuota)
{
    auto gpu = makeGpu();
    // Low, easily achievable goal: the kernel must be throttled to
    // it, not run free.
    double goal = 100.0;
    QuotaController qc({QosSpec::qos(goal), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 100000);
    double ipc = static_cast<double>(gpu->threadInstrs(0)) /
                 gpu->now();
    EXPECT_GT(ipc, goal * 0.8);
    EXPECT_LT(ipc, goal * 1.6); // throttled near goal, not free
}

TEST_F(QuotaFixture, AlphaRisesWhenBehindGoal)
{
    auto gpu = makeGpu();
    // Unreachable goal: history stays below, alpha must exceed 1.
    QuotaController qc({QosSpec::qos(1e6), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 60000);
    EXPECT_GT(qc.alpha(0), 1.0);
    EXPECT_LT(qc.ipcHistory(0), 1e6);
}

TEST_F(QuotaFixture, HistoryDisabledKeepsAlphaOne)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.historyAdjust = false;
    QuotaController qc({QosSpec::qos(1e6), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 60000);
    EXPECT_DOUBLE_EQ(qc.alpha(0), 1.0);
}

TEST_F(QuotaFixture, NonQosGoalGrowsWithRefills)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(100.0), QosSpec::nonQos()},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    EXPECT_DOUBLE_EQ(qc.nonQosGoal(1),
                     QuotaController::nonQosInitialIpc);
    drive(*gpu, qc, 100000);
    // The QoS kernel exhausts its small quota; refills let the
    // non-QoS kernel run, and the goal search follows its real IPC.
    EXPECT_GT(qc.nonQosGoal(1), 5.0);
    EXPECT_GT(gpu->threadInstrs(1), 0u);
}

TEST_F(QuotaFixture, RolloverCarriesUnusedQosQuota)
{
    auto gpu = makeGpu();
    // Goal above capability: quota is never fully consumed; the
    // rollover carry (capped at one share) must appear on top of
    // the next epoch's share.
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Rollover;
    opts.historyAdjust = false; // keep shares comparable
    QuotaController qc({QosSpec::qos(5000.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    double share0 = gpu->sm(0).quota(0);
    drive(*gpu, qc, cfg.epochLength + 2);
    EXPECT_GT(gpu->sm(0).quota(0), share0 * 1.2);
    EXPECT_LE(gpu->sm(0).quota(0), share0 * 2.01);
}

TEST_F(QuotaFixture, NaiveDiscardsUnusedQuota)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Naive;
    opts.historyAdjust = false;
    QuotaController qc({QosSpec::qos(5000.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    double share0 = gpu->sm(0).quota(0);
    drive(*gpu, qc, cfg.epochLength + 2);
    // New counter is at most one share (plus redistribution noise).
    EXPECT_LE(gpu->sm(0).quota(0), share0 * 1.7);
}

TEST_F(QuotaFixture, ElasticRestartsEarly)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.scheme = QuotaScheme::Elastic;
    // Two QoS kernels with tiny goals: all quotas drain long
    // before the nominal epoch ends, so elastic epochs are short.
    QuotaController qc({QosSpec::qos(50.0), QosSpec::qos(20.0)},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 5 * cfg.epochLength);
    // More epochs than nominal boundaries would allow.
    EXPECT_GT(qc.epochIndex(), 5);
}

TEST_F(QuotaFixture, ElasticIdleGpuKeepsForcedEpochs)
{
    // Manual launch with no grid started: no TB is ever resident,
    // so no quota drains and only forced boundaries end epochs.
    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    gpu.setManualLaunch(0);
    gpu.setManualLaunch(1);
    FineGrainOptions opts;
    opts.quota.scheme = QuotaScheme::Elastic;
    FineGrainQosPolicy pol({QosSpec::qos(500.0), QosSpec::nonQos()},
                           opts, cfg.epochLength);
    pol.onLaunch(gpu);
    SimEngine engine(EngineKind::Event, cfg.epochLength);
    EXPECT_FALSE(
        engine.runUntil(gpu, pol, 5 * cfg.epochLength + 1));
    EXPECT_EQ(pol.quota().epochIndex(), 5);
}

TEST_F(QuotaFixture, RolloverTimeBlocksNonQosFirst)
{
    auto gpu = makeGpu();
    QuotaOptions opts;
    opts.timeMux = true;
    QuotaController qc({QosSpec::qos(200.0), QosSpec::nonQos()},
                       opts, cfg.epochLength);
    qc.onLaunch(*gpu);
    // Right after launch, non-QoS quota is stashed (<= 0).
    EXPECT_LE(gpu->sm(0).quota(1), 0.0);
    drive(*gpu, qc, 100000);
    // Once QoS quotas drain each epoch the stash is released: the
    // non-QoS kernel does execute overall.
    EXPECT_GT(gpu->threadInstrs(1), 0u);
}

TEST_F(QuotaFixture, RolloverRefillLandsTheCycleAfterExhaustion)
{
    cfg.numSms = 2;
    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    FineGrainQosPolicy pol({QosSpec::qos(100.0), QosSpec::nonQos()},
                           FineGrainOptions{}, cfg.epochLength);
    pol.onLaunch(gpu);
    EXPECT_GT(test::checkGrantLatency(gpu, pol, {1},
                                      4 * cfg.epochLength), 10);
}

TEST_F(QuotaFixture, RolloverTimeReleaseAndRefillLandTheNextCycle)
{
    cfg.numSms = 2;
    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    FineGrainOptions opts;
    opts.quota.timeMux = true;
    FineGrainQosPolicy pol({QosSpec::qos(100.0), QosSpec::nonQos()},
                           opts, cfg.epochLength);
    MetricsRegistry metrics;
    pol.attachTelemetry(nullptr, &metrics);
    pol.onLaunch(gpu);
    int grants = test::checkGrantLatency(gpu, pol, {1},
                                         4 * cfg.epochLength);
    // Refills are counted apart from releases; both were checked.
    std::uint64_t refills = metrics.counter("qos.refill_grants").value();
    EXPECT_GT(refills, 0u);
    EXPECT_GT(static_cast<std::uint64_t>(grants), refills);
}

TEST_F(QuotaFixture, ElasticRestartLandsTheCycleAfterTheLastDrain)
{
    cfg.numSms = 2;
    Gpu gpu(cfg);
    gpu.launch({&a, &b});
    FineGrainOptions opts;
    opts.quota.scheme = QuotaScheme::Elastic;
    FineGrainQosPolicy pol({QosSpec::qos(5.0), QosSpec::qos(2.0)},
                           opts, cfg.epochLength);
    pol.onLaunch(gpu);
    SimEngine engine(EngineKind::Reference, 5 * cfg.epochLength);
    bool due = false;
    int restarts = 0;
    for (Cycle c = 0; c < 5 * cfg.epochLength; ++c) {
        int epoch = pol.quota().epochIndex();
        engine.runUntil(gpu, pol, gpu.now() + 1);
        if (due) {
            EXPECT_EQ(pol.quota().epochIndex(), epoch + 1)
                << "cycle " << gpu.now() - 1;
            restarts++;
        }
        // Every QoS quota drained on every SM, with work resident.
        due = gpu.totalResidentTbs(0) + gpu.totalResidentTbs(1) > 0;
        for (int s = 0; s < gpu.numSms(); ++s)
            due = due && gpu.sm(s).allQuotasExhausted();
    }
    EXPECT_GT(restarts, 5);
}

TEST_F(QuotaFixture, LastLeftoverSeparatesThrottledFromLimited)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(50.0), QosSpec::qos(1e6)},
                       QuotaOptions{}, cfg.epochLength);
    qc.onLaunch(*gpu);
    drive(*gpu, qc, 3 * cfg.epochLength + 2);
    // Kernel 0 (easy goal) consumed its quota: leftover <= 0.
    EXPECT_LE(qc.lastLeftover(0, 0), 0.0);
    // Kernel 1 (impossible goal) could not: leftover > 0.
    EXPECT_GT(qc.lastLeftover(0, 1), 0.0);
}

TEST_F(QuotaFixture, SpecMismatchIsFatal)
{
    auto gpu = makeGpu();
    QuotaController qc({QosSpec::qos(100.0)}, QuotaOptions{},
                       cfg.epochLength);
    EXPECT_EXIT(qc.onLaunch(*gpu), ::testing::ExitedWithCode(1),
                "");
}

TEST(QuotaOptionsDeath, NonPositiveGoalIsFatal)
{
    EXPECT_EXIT(QuotaController({QosSpec::qos(0.0)},
                                QuotaOptions{}, 10000),
                ::testing::ExitedWithCode(1), "");
}

} // anonymous namespace
} // namespace gqos
