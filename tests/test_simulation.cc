/**
 * @file
 * Simulation tests: the one run path every driver shares. A wedged
 * policy must end in the same Stalled error at the same cycle under
 * both engines, and the wiring (case labels, SM slices, manual
 * launch, end-of-run export) must be what callers rely on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/metrics.hh"
#include "engine/simulation.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

/**
 * Places TBs everywhere and gates every warp before its first
 * instruction, forever: live warps that never retire anything.
 */
class GateAllPolicy : public SharingPolicy
{
  public:
    void
    onLaunch(Gpu &gpu) override
    {
        for (SmId s = 0; s < gpu.numSms(); ++s) {
            gpu.setTbTarget(s, 0, 2);
            gpu.sm(s).setQuotaGating(true);
            gpu.sm(s).setQuota(0, -1.0);
        }
    }

    Cycle onCycle(Gpu &) override { return cycleNever; }

    std::string name() const override { return "gate-all"; }
};

TEST(SimulationTest, StallIsTheSameErrorUnderBothEngines)
{
    const KernelDesc d = test::tinyComputeKernel();
    const std::string label = "gate-all|tiny-c:0.0000";
    Cycle stalled_at[2] = {0, 0};
    for (EngineKind kind :
         {EngineKind::Event, EngineKind::Reference}) {
        SCOPED_TRACE(toString(kind));
        MetricsRegistry metrics;
        Simulation sim(defaultConfig(), {&d},
                       std::make_unique<GateAllPolicy>(),
                       {.engine = kind,
                        .stallWindow = 4096,
                        .label = label,
                        .metrics = &metrics,
                        .accounting = true});
        Result<void> r = sim.runUntil(200000);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code(), ErrorCode::Stalled);
        EXPECT_NE(r.error().message().find(label), std::string::npos)
            << r.error().message();
        EXPECT_NE(r.error().message().find("4096"),
                  std::string::npos);
        EXPECT_EQ(sim.gpu().threadInstrs(0), 0u);
        EXPECT_GT(sim.gpu().dispatchState(0).liveTbs, 0);
        stalled_at[kind == EngineKind::Reference] = sim.gpu().now();
        EXPECT_NE(r.error().message().find(
                      std::to_string(sim.gpu().now())),
                  std::string::npos);
        // The machine stays where the watchdog fired; the run can
        // still be finished and its cycles still telescope.
        EXPECT_EQ(sim.finish().size(), 1u);
        EXPECT_EQ(metrics.counter("engine.stepped_cycles").value() +
                      metrics.counter("engine.skipped_cycles")
                          .value(),
                  sim.gpu().now());
    }
    EXPECT_EQ(stalled_at[0], stalled_at[1]);
    EXPECT_GE(stalled_at[0], 4096u);
    EXPECT_LT(stalled_at[0], 200000u);
}

TEST(SimulationTest, TraceRecordsCarryTheLabelAndSlicesClose)
{
    const KernelDesc d = test::tinyComputeKernel();
    GpuConfig cfg = defaultConfig();
    RecordingTraceSink rec;
    Simulation sim(cfg, {&d},
                   makePolicy("rollover", {QosSpec::qos(100.0)},
                              cfg).value(),
                   {.stallWindow = cfg.epochLength,
                    .label = "case-a",
                    .trace = &rec});
    ASSERT_NE(sim.trace(), nullptr);
    ASSERT_TRUE(sim.runUntil(2 * cfg.epochLength + 100).ok());
    EXPECT_TRUE(sim.finish().empty()); // accounting off
    EXPECT_FALSE(rec.all<EpochKernelRecord>().empty());
    // Every SM that ran the kernel had its open slice closed.
    EXPECT_FALSE(rec.all<SmSliceRecord>().empty());
    for (const SmSliceRecord &s : rec.all<SmSliceRecord>())
        EXPECT_EQ(s.caseKey, "case-a");
    for (const EpochKernelRecord &e : rec.all<EpochKernelRecord>())
        EXPECT_EQ(e.caseKey, "case-a");
}

TEST(SimulationTest, NoSinkMeansNoLabelledSink)
{
    const KernelDesc d = test::tinyComputeKernel();
    GpuConfig cfg = defaultConfig();
    Simulation sim(cfg, {&d},
                   makePolicy("even", {QosSpec::nonQos()},
                              cfg).value(),
                   {.stallWindow = cfg.epochLength,
                    .label = "even|tiny-c:0.0000"});
    EXPECT_EQ(sim.trace(), nullptr);
    ASSERT_TRUE(sim.runUntil(5000).ok());
    EXPECT_GT(sim.gpu().threadInstrs(0), 0u);
}

TEST(SimulationTest, ManualLaunchKernelsWaitForStartGrid)
{
    const KernelDesc d = test::tinyComputeKernel();
    GpuConfig cfg = defaultConfig();
    Simulation sim(cfg, {&d},
                   makePolicy("even", {QosSpec::nonQos()},
                              cfg).value(),
                   {.stallWindow = cfg.epochLength,
                    .label = "serving|tiny-c",
                    .manualLaunch = true});
    ASSERT_TRUE(sim.runUntil(5000).ok());
    EXPECT_EQ(sim.gpu().threadInstrs(0), 0u);
    sim.gpu().startGrid(0);
    ASSERT_TRUE(sim.runUntil(200000).ok());
    EXPECT_EQ(sim.gpu().gridsCompleted(0), 1u);
}

} // namespace
} // namespace gqos
