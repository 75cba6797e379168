/**
 * @file
 * Stepping-engine tests: SmCore/Gpu control-point contracts
 * (cycle()'s next-event bound / skip accounting), SimEngine skip
 * behaviour, and
 * the differential guarantee — every policy produces bit-identical
 * results, statistics and telemetry under the event engine and the
 * per-cycle reference engine.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/sim_engine.hh"
#include "harness/runner.hh"
#include "mem/mem_system.hh"
#include "policy/even_share.hh"
#include "policy/smk_fair.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

// ---------------------------------------------------------------
// Engine-kind parsing.
// ---------------------------------------------------------------

TEST(EngineKindParse, RoundTrip)
{
    EXPECT_EQ(parseEngineKind("event").value(), EngineKind::Event);
    EXPECT_EQ(parseEngineKind("reference").value(),
              EngineKind::Reference);
    EXPECT_STREQ(toString(EngineKind::Event), "event");
    EXPECT_STREQ(toString(EngineKind::Reference), "reference");
}

TEST(EngineKindParse, UnknownNameIsRecoverable)
{
    auto r = parseEngineKind("warp-speed");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message().find("warp-speed"),
              std::string::npos);
}

// ---------------------------------------------------------------
// SmCore::cycle() next-event bound / parked-span settle contract.
// ---------------------------------------------------------------

struct EngineSmFixture : public ::testing::Test
{
    EngineSmFixture()
        : cfg(defaultConfig()),
          descC(test::tinyComputeKernel()),
          descM(test::tinyMemoryKernel()),
          mem(cfg),
          clock(std::make_shared<GpuClock>(cfg)),
          sm(cfg, 0, mem, clock),
          runC(descC, 0, cfg),
          runM(descM, 1, cfg)
    {
        sm.bindKernels({&runC, &runM});
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

    /**
     * Run one non-sampling cycle that must not issue and return the
     * next-event bound it hands back.
     */
    Cycle
    probe()
    {
        Cycle next = 0;
        EXPECT_FALSE(sm.cycle(now, false, &next)) << "cycle " << now;
        now++;
        return next;
    }

    GpuConfig cfg;
    KernelDesc descC, descM;
    MemSystem mem;
    /** The SM's clock: advancing it past the SM parks the SM. */
    std::shared_ptr<GpuClock> clock;
    SmCore sm;
    KernelRun runC, runM;
    Cycle now = 0;
};

TEST_F(EngineSmFixture, EmptySmIsInertForever)
{
    EXPECT_EQ(probe(), cycleNever);
    now = 123456;
    EXPECT_EQ(probe(), cycleNever);
}

TEST_F(EngineSmFixture, SettleAccountsTimeOnEmptySm)
{
    // The SM owes [0, 1000): samples at 0, 100, ..., 900.
    clock->now = 1000;
    EXPECT_EQ(sm.stats().cycles, 1000u);
    EXPECT_EQ(sm.stats().activeCycles, 0u);
    // No resident warps: samples record zero idle warps.
    EXPECT_EQ(sm.kernelStats(0).iwSamples, 10u);
    EXPECT_DOUBLE_EQ(sm.iwAverage(0), 0.0);
}

TEST_F(EngineSmFixture, DispatchWakeIsAFutureEvent)
{
    sm.dispatchTb(0, 0, 0, 0);
    Cycle t = probe();
    // The dispatch latency wake is the only pending event: strictly
    // in the future, not never.
    EXPECT_GT(t, 1u);
    EXPECT_NE(t, cycleNever);
    // Stepping the claimed-inert span issues nothing...
    for (Cycle c = 1; c < t; ++c)
        EXPECT_FALSE(sm.cycle(c, false));
    // ...and execution begins right at (or just after) the event.
    Cycle issued_at = t;
    for (; issued_at < t + 100; ++issued_at) {
        if (sm.cycle(issued_at, false))
            break;
    }
    EXPECT_LT(issued_at, t + 100);
}

TEST_F(EngineSmFixture, QuotaGatedOnlySmIsInert)
{
    sm.setQuotaGating(true);
    sm.setQuota(0, -1.0); // gated before the first instruction
    sm.dispatchTb(0, 0, 0, 0);
    run(2000); // drain the dispatch wakes; nothing can issue
    EXPECT_EQ(sm.kernelStats(0).threadInstrs, 0u);
    EXPECT_EQ(probe(), cycleNever);
    // Refilling the quota sets the SM's wake bit (a parked SM's
    // bound is void) and makes the ready-but-gated warps issue
    // right away.
    clock->wakeMask = 0;
    sm.addQuota(0, 1e6);
    EXPECT_EQ(clock->wakeMask, std::uint64_t{1});
    EXPECT_TRUE(sm.cycle(now, false));
}

TEST_F(EngineSmFixture, DrainIsAnEventUntilItCompletes)
{
    sm.dispatchTb(0, 0, 0, 0);
    run(100);
    ASSERT_TRUE(sm.startPreemption(0, now));
    EXPECT_NE(probe(), cycleNever);
    run(8000); // drain completes, in-flight memory settles
    EXPECT_FALSE(sm.preemptionPending());
    EXPECT_EQ(sm.totalResidentTbs(), 0);
    EXPECT_EQ(probe(), cycleNever);
}

TEST_F(EngineSmFixture, SkipMatchesSteppingThroughGatedSpan)
{
    // Two identical SMs reach a gated-idle state; one steps through
    // the span, the other is parked across it and settles it. All
    // statistics, including the cycle attribution the settle
    // replays from the last stepped cycle, must agree.
    MemSystem mem2(cfg);
    auto clock2 = std::make_shared<GpuClock>(cfg);
    SmCore sm2(cfg, 0, mem2, clock2);
    sm2.bindKernels({&runC, &runM});
    for (SmCore *s : {&sm, &sm2}) {
        s->setCycleAccounting(true);
        s->setQuotaGating(true);
        s->setQuota(0, -1.0);
        s->dispatchTb(0, 0, 0, 0);
    }
    Cycle next = 0;
    for (Cycle c = 0; c < 2000; ++c) {
        sm.cycle(c, (c % 100) == 0);
        sm2.cycle(c, (c % 100) == 0, &next);
    }
    ASSERT_EQ(next, cycleNever);
    // Span [2000, 12000): samples at 2000, 2100, ..., 11900.
    for (Cycle c = 2000; c < 12000; ++c)
        sm.cycle(c, (c % 100) == 0);
    clock2->now = 12000;
    EXPECT_EQ(sm.stats().cycles, sm2.stats().cycles);
    for (KernelId k = 0; k < 2; ++k) {
        const SmKernelStats &a = sm.kernelStats(k);
        const SmKernelStats &b = sm2.kernelStats(k);
        EXPECT_EQ(a.threadInstrs, b.threadInstrs) << "kernel " << k;
        EXPECT_EQ(a.iwSampleSum, b.iwSampleSum) << "kernel " << k;
        EXPECT_EQ(a.iwSamples, b.iwSamples) << "kernel " << k;
        EXPECT_EQ(a.gatedCycles, b.gatedCycles) << "kernel " << k;
        EXPECT_DOUBLE_EQ(sm.gatedFraction(k), sm2.gatedFraction(k));
        EXPECT_DOUBLE_EQ(sm.iwAverage(k), sm2.iwAverage(k));
        EXPECT_TRUE(sm.cycleBreakdown(k) == sm2.cycleBreakdown(k))
            << "kernel " << k;
    }
}

TEST_F(EngineSmFixture, IssuingCycleThatEmptiesEveryReadyMaskParks)
{
    // Kernel 0: one warp per scheduler, all ALU at latency 8, so the
    // cycle its warps first become ready issues every ready lane and
    // leaves nothing ready until cycle + 8. Kernel 1 is a quota-gated
    // co-runner dispatched later, still waiting on its dispatch wake
    // when kernel 0 issues. One SM parks on the issuing cycle and
    // settles the span; its twin steps every cycle.
    KernelDesc da = test::tinyComputeKernel("early");
    da.threadsPerTb = 32 * cfg.warpSchedulersPerSm;
    da.warpInstrPerTb = 1000;
    da.phases[0].memRatio = 0.0;
    da.phases[0].aluLatency = 8;
    KernelRun run_a(da, 0, cfg);
    MemSystem mem2(cfg);
    auto clock2 = std::make_shared<GpuClock>(cfg);
    SmCore sm2(cfg, 0, mem2, clock2);
    auto sample = [](Cycle c) { return c % 100 == 0; };
    for (SmCore *s : {&sm, &sm2}) {
        s->bindKernels({&run_a, &runM});
        s->setCycleAccounting(true);
        s->setQuotaGating(true);
        s->setQuota(0, 1e9);
        s->setQuota(1, -1.0);
    }
    // Kernel 0's warps become ready at 98, kernel 1's at 110; the
    // sample at 100 falls inside the parked span.
    auto step_to = [&](Cycle end) {
        for (; now < end; ++now) {
            if (now == 68) {
                sm.dispatchTb(0, 0, 0, now);
                sm2.dispatchTb(0, 0, 0, now);
            }
            if (now == 80) {
                sm.dispatchTb(1, 1, 0, now);
                sm2.dispatchTb(1, 1, 0, now);
            }
            Cycle next = 0;
            ASSERT_FALSE(sm.cycle(now, sample(now), &next))
                << "cycle " << now;
            sm2.cycle(now, sample(now));
        }
    };
    step_to(98);
    Cycle bound = 0;
    EXPECT_FALSE(sm.cycle(now, sample(now), &bound));
    EXPECT_TRUE(sm2.cycle(now, sample(now)));
    ASSERT_GT(bound, now + 1);
    EXPECT_EQ(bound, now + 8);
    for (Cycle c = now + 1; c < bound; ++c)
        EXPECT_FALSE(sm2.cycle(c, sample(c))) << "cycle " << c;
    clock->now = bound;
    auto expect_twins = [&]() {
        const SmStats &a = sm.stats();
        const SmStats &b = sm2.stats();
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.activeCycles, b.activeCycles);
        EXPECT_EQ(a.issuedAlu, b.issuedAlu);
        EXPECT_EQ(a.issuedLoads, b.issuedLoads);
        EXPECT_EQ(a.issuedStores, b.issuedStores);
        for (KernelId k = 0; k < 2; ++k) {
            const SmKernelStats &x = sm.kernelStats(k);
            const SmKernelStats &y = sm2.kernelStats(k);
            EXPECT_EQ(x.threadInstrs, y.threadInstrs) << "kernel " << k;
            EXPECT_EQ(x.warpInstrs, y.warpInstrs) << "kernel " << k;
            EXPECT_EQ(x.iwSampleSum, y.iwSampleSum) << "kernel " << k;
            EXPECT_EQ(x.iwSamples, y.iwSamples) << "kernel " << k;
            EXPECT_EQ(x.gatedCycles, y.gatedCycles) << "kernel " << k;
            EXPECT_DOUBLE_EQ(sm.iwAverage(k), sm2.iwAverage(k));
            EXPECT_TRUE(sm.cycleBreakdown(k) == sm2.cycleBreakdown(k))
                << "kernel " << k;
        }
    };
    expect_twins();
    EXPECT_EQ(sm.stats().cycles, bound);
    EXPECT_GT(sm.cycleBreakdown(1).at(CycleCat::QuotaGated), 0u);

    // Run on, parking whenever a bound lies beyond the next cycle.
    for (now = bound; now < 3000;) {
        Cycle next = 0;
        bool busy = sm.cycle(now, sample(now), &next);
        Cycle end = !busy && next > now + 1 ? std::min<Cycle>(next, 3000)
                                            : now + 1;
        for (Cycle c = now; c < end; ++c)
            sm2.cycle(c, sample(c));
        clock->now = end;
        now = end;
    }
    expect_twins();
}

TEST_F(EngineSmFixture, FarWakeIsTheNoIssueBound)
{
    // One warp that only loads, from cold lines, behind an
    // interconnect congested by 4 MB of context traffic: every load
    // completes thousands of cycles out, far beyond the wake
    // wheel's horizon. While the warp waits, that far wake is the
    // SM's only pending event, so it alone must set the bound.
    KernelDesc d = test::tinyMemoryKernel("far");
    d.threadsPerTb = 32;
    d.phases[0].memRatio = 1.0;
    d.phases[0].storeFraction = 0.0;
    d.phases[0].avgTransPerMem = 1.0;
    d.phases[0].hotFraction = 0.0;
    KernelRun run_far(d, 0, cfg);
    sm.bindKernels({&run_far});
    mem.injectContextTraffic(0, 4u << 20, 0);
    sm.dispatchTb(0, 0, 0, 0);

    // Step until a no-issue cycle whose bound lies > 4096 cycles out:
    // the warp is then waiting on a far wake.
    Cycle bound = cycleNever;
    for (; now < 20000 && bound == cycleNever; ++now) {
        Cycle next = cycleNever;
        if (!sm.cycle(now, false, &next) && next != cycleNever &&
            next > now + 4096)
            bound = next;
    }
    ASSERT_NE(bound, cycleNever);
    ASSERT_GT(sm.stats().issuedLoads, 0u);
    for (; now < bound; ++now)
        ASSERT_FALSE(sm.cycle(now, false)) << "issued at cycle " << now;
    EXPECT_TRUE(sm.cycle(bound, false));
}

// ---------------------------------------------------------------
// Gpu-level control points.
// ---------------------------------------------------------------

TEST(GpuEngine, IdleGpuWithZeroTargetsIsInert)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    // Before any event-aware step no SM bound is cached: step now.
    EXPECT_EQ(gpu.nextEventAt(), gpu.now());
    // Targets stay 0: the dispatcher has nothing to converge
    // toward, so after the first (no-op) pass the GPU is inert.
    gpu.step(true);
    EXPECT_EQ(gpu.nextEventAt(), cycleNever);
    // An SM mutated since the last event-aware step has no valid
    // bound: step now, and the step caches a fresh one.
    gpu.sm(0).setQuota(0, 1.0);
    EXPECT_EQ(gpu.nextEventAt(), gpu.now());
    gpu.step(true);
    EXPECT_EQ(gpu.nextEventAt(), cycleNever);
    // A target move re-arms the dispatcher: step now again.
    gpu.setTbTarget(0, 0, 1);
    EXPECT_EQ(gpu.nextEventAt(), gpu.now());
}

TEST(GpuEngine, RunMatchesStepLoop)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto setup = [&](Gpu &gpu) {
        gpu.launch({&dc, &dm});
        gpu.setCycleAccounting(true);
        for (int s = 0; s < gpu.numSms(); ++s) {
            gpu.setTbTarget(s, 0, 2);
            gpu.setTbTarget(s, 1, 2);
        }
    };
    Gpu stepped(cfg), skipped(cfg);
    setup(stepped);
    setup(skipped);
    constexpr Cycle horizon = 60000;
    for (Cycle c = 0; c < horizon; ++c)
        stepped.step();
    // Never launched, the even policy keeps the targets above and
    // declares no control point: the engine drives a bare machine.
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Event, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(skipped, pol, horizon));
    ASSERT_EQ(stepped.now(), skipped.now());
    // The engine steps event-aware, so per-SM skips do happen.
    EXPECT_EQ(stepped.smSkippedCycles(), 0u);
    EXPECT_GT(skipped.smSkippedCycles(), 0u);
    for (KernelId k = 0; k < 2; ++k) {
        EXPECT_EQ(stepped.threadInstrs(k), skipped.threadInstrs(k));
        EXPECT_EQ(stepped.warpInstrs(k), skipped.warpInstrs(k));
        EXPECT_EQ(stepped.totalResidentTbs(k),
                  skipped.totalResidentTbs(k));
        EXPECT_EQ(stepped.dispatchState(k).completedTbs,
                  skipped.dispatchState(k).completedTbs);
        EXPECT_DOUBLE_EQ(stepped.iwAverage(k), skipped.iwAverage(k));
        EXPECT_DOUBLE_EQ(stepped.gatedFraction(k),
                         skipped.gatedFraction(k));
        EXPECT_TRUE(stepped.cycleBreakdown(k) ==
                    skipped.cycleBreakdown(k))
            << "kernel " << k;
    }
    for (int s = 0; s < stepped.numSms(); ++s) {
        EXPECT_EQ(stepped.sm(s).stats().cycles,
                  skipped.sm(s).stats().cycles);
        EXPECT_EQ(stepped.sm(s).stats().activeCycles,
                  skipped.sm(s).stats().activeCycles);
    }
}

TEST(GpuEngine, ParkedSpansMatchSteppingEverySm)
{
    // A quota-gated, store-heavy pair under a short sample interval
    // (a sample every 10 cycles), so parked spans cross many
    // samples and SMs often park store-throttled. One Gpu parks its
    // inert SMs, the other steps every SM on every cycle; both get
    // the same quota updates on the same cycles.
    GpuConfig cfg = defaultConfig();
    cfg.epochLength = 1000;
    cfg.iwSamplesPerEpoch = 100;
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc ds = test::tinyMemoryKernel("stores");
    ds.phases[0].memRatio = 0.6;
    ds.phases[0].storeFraction = 0.9;
    ds.phases[0].hotFraction = 0.0;
    Gpu parked(cfg), stepped(cfg);
    for (Gpu *g : {&parked, &stepped}) {
        g->launch({&dc, &ds});
        g->setCycleAccounting(true);
        g->setQuotaGatingAll(true);
        for (int s = 0; s < g->numSms(); ++s) {
            g->setTbTarget(s, 0, 2);
            g->setTbTarget(s, 1, 2);
        }
    }
    for (Cycle c = 0; c < 30000; ++c) {
        for (Gpu *g : {&parked, &stepped}) {
            for (int s = 0; s < g->numSms(); ++s) {
                // In odd periods the stores saturate the
                // interconnect and SMs park store-throttled; in
                // even ones every quota runs out early and SMs park
                // gated. The mid-period grant reaches only the odd
                // SMs.
                if (c % 1000 == 0) {
                    g->sm(s).setQuota(0, 3000.0);
                    g->sm(s).setQuota(1, (c / 1000) % 2 ? 1e6 : 2000.0);
                } else if (c % 1000 == 600 && s % 2 == 1) {
                    g->sm(s).addQuota(1, 500.0);
                }
            }
            // A burst of context traffic backs the interconnect up
            // for about 2000 cycles: SMs with ready stores park
            // store-throttled across many samples.
            if (c % 5000 == 2500)
                g->mem().injectContextTraffic(0, 2u << 20, c);
        }
        parked.step(true);
        stepped.step(false);
        // Retired-instruction reads settle nothing: a parked span
        // retires nothing, so they agree without touching the SMs.
        if (c % 100 == 0) {
            for (KernelId k = 0; k < 2; ++k)
                EXPECT_EQ(parked.threadInstrs(k),
                          stepped.threadInstrs(k)) << "cycle " << c;
        }
    }
    EXPECT_GT(parked.smSkippedCycles(), 0u);
    EXPECT_EQ(stepped.smSkippedCycles(), 0u);
    for (int s = 0; s < parked.numSms(); ++s) {
        const SmStats &a = parked.sm(s).stats();
        const SmStats &b = stepped.sm(s).stats();
        EXPECT_EQ(a.cycles, b.cycles) << "SM " << s;
        EXPECT_EQ(a.activeCycles, b.activeCycles) << "SM " << s;
        EXPECT_EQ(a.issuedAlu, b.issuedAlu) << "SM " << s;
        EXPECT_EQ(a.issuedSfu, b.issuedSfu) << "SM " << s;
        EXPECT_EQ(a.issuedSmem, b.issuedSmem) << "SM " << s;
        EXPECT_EQ(a.issuedLoads, b.issuedLoads) << "SM " << s;
        EXPECT_EQ(a.issuedStores, b.issuedStores) << "SM " << s;
        EXPECT_EQ(a.preemptions, b.preemptions) << "SM " << s;
        for (KernelId k = 0; k < 2; ++k) {
            const SmKernelStats &x = parked.sm(s).kernelStats(k);
            const SmKernelStats &y = stepped.sm(s).kernelStats(k);
            EXPECT_EQ(x.threadInstrs, y.threadInstrs)
                << "SM " << s << " kernel " << k;
            EXPECT_EQ(x.iwSampleSum, y.iwSampleSum)
                << "SM " << s << " kernel " << k;
            EXPECT_EQ(x.iwSamples, y.iwSamples)
                << "SM " << s << " kernel " << k;
            EXPECT_EQ(x.gatedCycles, y.gatedCycles)
                << "SM " << s << " kernel " << k;
            EXPECT_EQ(x.quotaRefills, y.quotaRefills)
                << "SM " << s << " kernel " << k;
            EXPECT_TRUE(parked.sm(s).cycleBreakdown(k) ==
                        stepped.sm(s).cycleBreakdown(k))
                << "SM " << s << " kernel " << k;
        }
    }
}

TEST(GpuEngine, DueRingWakesEachSmAtItsDueCycle)
{
    // SM s runs one single-warp TB of kernel s, ALU only at latency
    // 2, 63, 64, 65 or 10,000: each issue leaves nothing ready and
    // parks the SM exactly that many cycles out, in the due wheel's
    // ring (< 64) or its far set. The other SMs stay empty.
    const std::vector<Cycle> latency = {2, 63, 64, 65, 10000};
    GpuConfig cfg = defaultConfig();
    std::vector<KernelDesc> descs;
    for (Cycle d : latency) {
        KernelDesc k = test::tinyComputeKernel(
            "lat" + std::to_string(d));
        k.threadsPerTb = 32;
        k.gridTbs = 1;
        k.warpInstrPerTb = 1u << 20;
        k.phases[0].memRatio = 0.0;
        k.phases[0].aluLatency = static_cast<int>(d);
        descs.push_back(k);
    }
    std::vector<const KernelDesc *> ptrs;
    for (const KernelDesc &d : descs)
        ptrs.push_back(&d);
    Gpu parked(cfg), stepped(cfg);
    for (Gpu *g : {&parked, &stepped}) {
        g->launch(ptrs);
        for (SmId s = 0; s < 5; ++s)
            g->setTbTarget(s, s, 1);
    }

    // At cycle 239 SM 1 is parked in the ring, due at 282 (it issues
    // at 30 + 63j). Preempting its TB sets its wake bit: it steps
    // once, re-parks on the drain's finish, and its stale slot at
    // 282 must not step it again.
    constexpr Cycle preemptAt = 239;
    constexpr Cycle horizon = 25000;
    std::vector<std::vector<Cycle>> issues(5);
    std::uint64_t steps = 0;
    while (parked.now() < horizon) {
        Cycle now = parked.now();
        if (now == preemptAt) {
            parked.setTbTarget(1, 1, 0);
            stepped.setTbTarget(1, 1, 0);
        }
        Cycle target = std::min(parked.nextEventAt(), horizon);
        if (now < preemptAt)
            target = std::min(target, preemptAt);
        if (target > now) {
            parked.skipTo(target);
            for (; stepped.now() < target;)
                stepped.step(false);
            continue;
        }
        std::vector<std::uint64_t> before;
        for (SmId s = 0; s < 5; ++s)
            before.push_back(parked.sm(s).stats().activeCycles);
        parked.step(true);
        stepped.step(false);
        ++steps;
        for (SmId s = 0; s < 5; ++s) {
            if (parked.sm(s).stats().activeCycles != before[s])
                issues[s].push_back(now);
        }
    }
    ASSERT_EQ(stepped.now(), horizon);

    // Each SM issued right at every due cycle: first when its
    // dispatch wake arrived, then every `latency` cycles.
    std::uint64_t sm_steps = cfg.numSms; // cycle 0 steps every SM
    for (SmId s = 0; s < 5; ++s) {
        ASSERT_FALSE(issues[s].empty()) << "SM " << s;
        EXPECT_EQ(issues[s].front(), 30u) << "SM " << s;
        for (std::size_t i = 1; i < issues[s].size(); ++i)
            EXPECT_EQ(issues[s][i] - issues[s][i - 1], latency[s])
                << "SM " << s << " issue " << i;
        // The dispatch at cycle 0 wakes it at 1; then every step
        // of it issues.
        sm_steps += 1 + issues[s].size();
    }
    EXPECT_EQ(issues[1].back(), 219u);
    EXPECT_EQ(issues[4].size(), 3u);
    // SM 1 also steps once when woken and once when its drain ends.
    sm_steps += 2;
    EXPECT_EQ(parked.smSkippedCycles(), steps * cfg.numSms - sm_steps);
    EXPECT_EQ(stepped.smSkippedCycles(), 0u);
    EXPECT_EQ(parked.sm(1).stats().preemptions, 1u);
    EXPECT_EQ(parked.residentTbs(1, 1), 0);
    for (SmId s = 0; s < parked.numSms(); ++s) {
        EXPECT_EQ(parked.sm(s).stats().cycles,
                  stepped.sm(s).stats().cycles) << "SM " << s;
        EXPECT_EQ(parked.sm(s).stats().activeCycles,
                  stepped.sm(s).stats().activeCycles) << "SM " << s;
    }
    for (KernelId k = 0; k < 5; ++k)
        EXPECT_EQ(parked.threadInstrs(k), stepped.threadInstrs(k));
}

TEST(GpuEngine, AddQuotaWakesAParkedSm)
{
    // One TB on SM 0, gated before its first instruction: once the
    // dispatch wakes drain, every SM is parked for good.
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    gpu.setQuotaGatingAll(true);
    gpu.sm(0).setQuota(0, -1.0);
    gpu.setTbTarget(0, 0, 1);
    for (int i = 0; i < 2000; ++i)
        gpu.step(true);
    ASSERT_EQ(gpu.residentTbs(0, 0), 1);
    ASSERT_EQ(gpu.nextEventAt(), cycleNever);
    std::uint64_t skipped = gpu.smSkippedCycles();
    std::uint64_t active = gpu.sm(0).stats().activeCycles;
    // The grant wakes SM 0, which issues on the very next step.
    gpu.sm(0).addQuota(0, 1e6);
    EXPECT_EQ(gpu.nextEventAt(), gpu.now());
    gpu.step(true);
    EXPECT_EQ(gpu.sm(0).stats().activeCycles, active + 1);
    // Only SM 0 stepped; the others stayed parked.
    EXPECT_EQ(gpu.smSkippedCycles(),
              skipped + static_cast<std::uint64_t>(gpu.numSms() - 1));
}

// ---------------------------------------------------------------
// SimEngine behaviour.
// ---------------------------------------------------------------

TEST(SimEngineTest, SkipsAnIdleMachine)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    // No TB targets set: the machine never does anything, and the
    // even policy declares no control points.
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Event, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, 100000));
    EXPECT_EQ(gpu.now(), 100000u);
    EXPECT_GT(engine.stats().skippedCycles, 90000u);
    EXPECT_EQ(engine.stats().steppedCycles +
                  engine.stats().skippedCycles,
              100000u);
}

TEST(SimEngineTest, ReferenceEngineNeverSkips)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    EvenSharePolicy pol;
    SimEngine engine(EngineKind::Reference, cfg.epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, 20000));
    EXPECT_EQ(engine.stats().skippedCycles, 0u);
    EXPECT_EQ(engine.stats().steppedCycles, 20000u);
}

TEST(SimEngineTest, ResumableAcrossWarmupBoundary)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto run_split = [&](Cycle mid) {
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        EvenSharePolicy pol;
        pol.onLaunch(gpu);
        SimEngine engine(EngineKind::Event, cfg.epochLength);
        engine.runUntil(gpu, pol, mid);
        engine.runUntil(gpu, pol, 40000);
        return std::pair<std::uint64_t, std::uint64_t>(
            gpu.threadInstrs(0), gpu.threadInstrs(1));
    };
    EXPECT_EQ(run_split(10000), run_split(25000));
}

// ---------------------------------------------------------------
// SimEngine against the SharingPolicy::onCycle() contract.
// ---------------------------------------------------------------

/**
 * Acts (returns now) at the scripted cycles, otherwise returns the
 * next scripted cycle, and logs every call. Never touches the
 * machine, so acting is only a claim the engine must honour.
 */
class ScriptedPolicy : public SharingPolicy
{
  public:
    explicit ScriptedPolicy(std::vector<Cycle> acts)
        : acts_(std::move(acts))
    {
        std::sort(acts_.begin(), acts_.end());
    }

    void onLaunch(Gpu &) override {}

    Cycle
    onCycle(Gpu &gpu) override
    {
        Cycle now = gpu.now();
        auto it = std::lower_bound(acts_.begin(), acts_.end(), now);
        Cycle bound = it == acts_.end() ? cycleNever : *it;
        calls.emplace_back(now, bound);
        return bound;
    }

    std::string name() const override { return "scripted"; }

    /** True if onCycle() ran at cycle @p c. */
    bool
    calledAt(Cycle c) const
    {
        return std::any_of(calls.begin(), calls.end(),
                           [c](const auto &call) {
                               return call.first == c;
                           });
    }

    /** (cycle, returned bound) of every call, in call order. */
    std::vector<std::pair<Cycle, Cycle>> calls;

  private:
    std::vector<Cycle> acts_;
};

/**
 * Run @p pol on @p gpu to @p until and check the call log: one
 * call per stepped or probed cycle, strictly increasing cycles, a
 * step right after every acting call, no call later than the bound
 * a non-acting call returned, and a call at every scripted cycle.
 */
EngineStats
runScripted(EngineKind kind, Gpu &gpu, ScriptedPolicy &pol,
            const std::vector<Cycle> &acts, Cycle until)
{
    SimEngine engine(kind, gpu.config().epochLength);
    EXPECT_FALSE(engine.runUntil(gpu, pol, until));
    const EngineStats &st = engine.stats();
    EXPECT_EQ(pol.calls.size(), st.steppedCycles + st.skips);
    for (std::size_t i = 1; i < pol.calls.size(); ++i) {
        auto [at, bound] = pol.calls[i - 1];
        Cycle next = pol.calls[i].first;
        if (bound == at) {
            // Acted: the engine must execute this very cycle.
            EXPECT_EQ(next, at + 1);
        } else {
            EXPECT_GT(next, at);
            EXPECT_LE(next, bound);
        }
    }
    for (Cycle c : acts)
        EXPECT_TRUE(pol.calledAt(c)) << "no call at cycle " << c;
    return st;
}

TEST(SimEngineTest, IdleControlPointStepsOnce)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    ScriptedPolicy pol({5000});
    EngineStats st =
        runScripted(EngineKind::Event, gpu, pol, {5000}, 10000);
    // Cycle 0 (no bound cached yet) and the control point itself.
    EXPECT_EQ(st.steppedCycles, 2u);
    EXPECT_EQ(st.controlPoints, 1u);
    EXPECT_EQ(st.skippedCycles, 10000u - 2u);
}

TEST(SimEngineTest, PolicyBoundIsNeverSkipped)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc d = test::tinyComputeKernel();
    Gpu gpu(cfg);
    gpu.launch({&d});
    const std::vector<Cycle> acts = {3000, 3001, 7777, 20000, 45000};
    ScriptedPolicy pol(acts);
    EngineStats st =
        runScripted(EngineKind::Event, gpu, pol, acts, 50000);
    EXPECT_EQ(st.controlPoints, acts.size());
    EXPECT_EQ(st.steppedCycles, 1u + acts.size());
}

TEST(SimEngineTest, OnCycleOncePerStepOnABusyMachine)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    std::vector<Cycle> acts;
    for (Cycle c = 1500; c < 30000; c += 1500)
        acts.push_back(c);
    for (EngineKind kind : {EngineKind::Event, EngineKind::Reference}) {
        SCOPED_TRACE(toString(kind));
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        for (int s = 0; s < gpu.numSms(); ++s) {
            gpu.setTbTarget(s, 0, 2);
            gpu.setTbTarget(s, 1, 2);
        }
        ScriptedPolicy pol(acts);
        EngineStats st = runScripted(kind, gpu, pol, acts, 30000);
        EXPECT_EQ(st.steppedCycles + st.skippedCycles, 30000u);
        if (kind == EngineKind::Reference) {
            EXPECT_EQ(pol.calls.size(), 30000u);
        } else {
            EXPECT_GT(st.skips, 0u);
        }
    }
}

// ---------------------------------------------------------------
// Differential: event vs. reference engine across every policy.
// ---------------------------------------------------------------

/** Per-engine harness run capturing results and telemetry. */
struct EngineRun
{
    CaseResult result;
    RecordingTraceSink trace;
};

class EngineDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = "/tmp/gqos_engine_diff_" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir);
    }

    /** Run one case under @p kind with a fresh cache and sink. */
    void
    runOne(EngineKind kind, const std::string &policy,
           EngineRun &out)
    {
        Runner::Options opts;
        opts.cycles = 24000;
        opts.warmupCycles = 4000;
        // Separate cache dirs so both engines really simulate (the
        // production cache is shared between engines by design).
        opts.cacheDir = dir + "/" + toString(kind);
        opts.engine = kind;
        opts.traceSink = &out.trace;
        Runner runner = Runner::make(opts).value();
        out.result = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                                policy).value();
    }

    static void
    expectIdentical(const EngineRun &ev, const EngineRun &ref,
                    const std::string &policy)
    {
        SCOPED_TRACE("policy " + policy);
        const CaseResult &a = ev.result;
        const CaseResult &b = ref.result;
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (std::size_t i = 0; i < a.kernels.size(); ++i) {
            EXPECT_DOUBLE_EQ(a.kernels[i].ipc, b.kernels[i].ipc);
            EXPECT_DOUBLE_EQ(a.kernels[i].ipcIsolated,
                             b.kernels[i].ipcIsolated);
            EXPECT_DOUBLE_EQ(a.kernels[i].goalIpc,
                             b.kernels[i].goalIpc);
        }
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_DOUBLE_EQ(a.dramPerKcycle, b.dramPerKcycle);
        EXPECT_DOUBLE_EQ(a.instrPerWatt, b.instrPerWatt);

        // Telemetry must match record by record, field by field
        // (isolated-baseline runs emit records too, so the streams
        // cover more than the co-run itself).
        const auto evKernel = ev.trace.all<EpochKernelRecord>();
        const auto refKernel = ref.trace.all<EpochKernelRecord>();
        ASSERT_EQ(evKernel.size(), refKernel.size());
        for (std::size_t i = 0; i < evKernel.size(); ++i) {
            const EpochKernelRecord &x = evKernel[i];
            const EpochKernelRecord &y = refKernel[i];
            SCOPED_TRACE("epoch_kernel record " + std::to_string(i));
            EXPECT_EQ(x.caseKey, y.caseKey);
            EXPECT_EQ(x.epoch, y.epoch);
            EXPECT_EQ(x.start, y.start);
            EXPECT_EQ(x.length, y.length);
            EXPECT_EQ(x.kernel, y.kernel);
            EXPECT_EQ(x.instrDelta, y.instrDelta);
            EXPECT_EQ(x.completedTbs, y.completedTbs);
            EXPECT_EQ(x.preemptedTbs, y.preemptedTbs);
            EXPECT_EQ(x.quotaRefills, y.quotaRefills);
            EXPECT_EQ(x.tbTarget, y.tbTarget);
            EXPECT_EQ(x.tbResident, y.tbResident);
            EXPECT_DOUBLE_EQ(x.alpha, y.alpha);
            EXPECT_DOUBLE_EQ(x.ipcEpoch, y.ipcEpoch);
            EXPECT_DOUBLE_EQ(x.quotaGranted, y.quotaGranted);
            EXPECT_DOUBLE_EQ(x.nonQosGoal, y.nonQosGoal);
            EXPECT_DOUBLE_EQ(x.iwAverage, y.iwAverage);
            EXPECT_DOUBLE_EQ(x.gatedFraction, y.gatedFraction);
            ASSERT_EQ(x.leftoverPerSm.size(),
                      y.leftoverPerSm.size());
            for (std::size_t s = 0; s < x.leftoverPerSm.size(); ++s)
                EXPECT_DOUBLE_EQ(x.leftoverPerSm[s],
                                 y.leftoverPerSm[s]);
        }
        const auto evMem = ev.trace.all<EpochMemRecord>();
        const auto refMem = ref.trace.all<EpochMemRecord>();
        ASSERT_EQ(evMem.size(), refMem.size());
        for (std::size_t i = 0; i < evMem.size(); ++i) {
            const EpochMemRecord &x = evMem[i];
            const EpochMemRecord &y = refMem[i];
            SCOPED_TRACE("epoch_mem record " + std::to_string(i));
            EXPECT_EQ(x.epoch, y.epoch);
            EXPECT_EQ(x.l1Accesses, y.l1Accesses);
            EXPECT_EQ(x.l2Misses, y.l2Misses);
            EXPECT_EQ(x.dramAccesses, y.dramAccesses);
            EXPECT_EQ(x.contextLines, y.contextLines);
        }
        const auto evAlloc = ev.trace.all<AllocEventRecord>();
        const auto refAlloc = ref.trace.all<AllocEventRecord>();
        ASSERT_EQ(evAlloc.size(), refAlloc.size());
        for (std::size_t i = 0; i < evAlloc.size(); ++i) {
            const AllocEventRecord &x = evAlloc[i];
            const AllocEventRecord &y = refAlloc[i];
            SCOPED_TRACE("alloc_event record " + std::to_string(i));
            EXPECT_EQ(x.cycle, y.cycle);
            EXPECT_EQ(x.sm, y.sm);
            EXPECT_EQ(x.kernel, y.kernel);
            EXPECT_EQ(x.delta, y.delta);
            EXPECT_EQ(x.reason, y.reason);
        }
    }

    std::string dir;
};

TEST_F(EngineDifferential, AllPoliciesBitIdentical)
{
    for (const char *policy :
         {"even", "naive", "elastic", "rollover", "rollover-time",
          "rollover-nohist", "rollover-nostatic", "spart"}) {
        EngineRun ev, ref;
        runOne(EngineKind::Event, policy, ev);
        runOne(EngineKind::Reference, policy, ref);
        expectIdentical(ev, ref, policy);
    }
}

TEST(EngineDifferentialSmkFair, BitIdenticalWithoutHarness)
{
    GpuConfig cfg = defaultConfig();
    KernelDesc dc = test::tinyComputeKernel();
    KernelDesc dm = test::tinyMemoryKernel();
    auto run_kind = [&](EngineKind kind) {
        Gpu gpu(cfg);
        gpu.launch({&dc, &dm});
        SmkFairPolicy pol({250.0, 900.0}, cfg.epochLength);
        pol.onLaunch(gpu);
        SimEngine engine(kind, cfg.epochLength);
        EXPECT_FALSE(engine.runUntil(gpu, pol, 80000));
        return std::tuple<std::uint64_t, std::uint64_t, double>(
            gpu.threadInstrs(0), gpu.threadInstrs(1),
            pol.fairnessIndex());
    };
    auto ev = run_kind(EngineKind::Event);
    auto ref = run_kind(EngineKind::Reference);
    EXPECT_EQ(std::get<0>(ev), std::get<0>(ref));
    EXPECT_EQ(std::get<1>(ev), std::get<1>(ref));
    EXPECT_DOUBLE_EQ(std::get<2>(ev), std::get<2>(ref));
}

} // anonymous namespace
} // namespace gqos
