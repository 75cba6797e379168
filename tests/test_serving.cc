/**
 * @file
 * Online serving stack: arrival generators, admission control with
 * graceful degradation, and the end-to-end serving driver —
 * determinism, conservation, overload ordering and the stall
 * watchdog.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "policy/policy_factory.hh"
#include "serving/admission.hh"
#include "serving/arrival.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

namespace gqos
{
namespace
{

// ---------------------------------------------------------------
// Tenant specs
// ---------------------------------------------------------------

TEST(TenantSpec, ParsesFullSpec)
{
    auto r = parseTenantSpec("web:sgemm:guaranteed:0.5:30000:8");
    ASSERT_TRUE(r.ok());
    const TenantSpec &t = r.value();
    EXPECT_EQ(t.name, "web");
    EXPECT_EQ(t.kernel, "sgemm");
    EXPECT_EQ(t.qosClass, QosClass::Guaranteed);
    EXPECT_DOUBLE_EQ(t.goalFrac, 0.5);
    EXPECT_EQ(t.sloCycles, 30000u);
    EXPECT_EQ(t.queueCap, 8u);
}

TEST(TenantSpec, DefaultsApplyFromShortSpec)
{
    auto r = parseTenantSpec("bg:histo");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().qosClass, QosClass::Elastic);
    EXPECT_EQ(r.value().queueCap, 16u);
}

TEST(TenantSpec, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseTenantSpec("justaname").ok());
    EXPECT_FALSE(parseTenantSpec("t:nosuchkernel").ok());
    EXPECT_FALSE(parseTenantSpec("t:sgemm:royalty").ok());
    EXPECT_FALSE(parseTenantSpec("t:sgemm:elastic:1.5").ok());
    EXPECT_FALSE(parseTenantSpec("t:sgemm:elastic:0.3:abc").ok());
    EXPECT_FALSE(parseTenantSpec("t:sgemm:elastic:0.3:100:0").ok());
}

TEST(TenantSpec, SloZeroMeansNoSloButQueueZeroIsRejected)
{
    auto r = parseTenantSpec("w:sgemm:guaranteed:0.5:0");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().sloCycles, 0u);
    auto q = parseTenantSpec("w:sgemm:guaranteed:0.5:0:0");
    ASSERT_FALSE(q.ok());
    EXPECT_NE(q.error().message().find("bad queue"), std::string::npos)
        << q.error().message();
}

TEST(TenantSpec, RejectsSignedAndNonFiniteNumbers)
{
    // A signed slo must not wrap to 2^64 - 1: every deadline would
    // wrap, and every admitted request would be abandoned.
    struct Case
    {
        const char *spec;
        const char *field;
    };
    for (const Case &c :
         {Case{"web:sgemm:guaranteed:0.5:-1:16", "slo"},
          Case{"web:sgemm:guaranteed:0.5:30000:-1", "queue"},
          Case{"web:sgemm:guaranteed:nan", "goal"},
          Case{"web:sgemm:guaranteed:0.5:+30000", "slo"},
          Case{"web:sgemm:guaranteed:0.5:0x10", "slo"}}) {
        auto r = parseTenantSpec(c.spec);
        ASSERT_FALSE(r.ok()) << c.spec;
        EXPECT_NE(r.error().message().find(std::string(c.field) +
                                           " expects"),
                  std::string::npos)
            << r.error().message();
    }
    TenantSpec t{"w", "sgemm", QosClass::Guaranteed,
                 std::numeric_limits<double>::quiet_NaN(), 0, 16};
    EXPECT_FALSE(t.check().ok());
}

TEST(TenantSpec, ListParsingAndDefaultMix)
{
    auto r = parseTenantList("a:sgemm;b:lbm:besteffort");
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().size(), 2u);
    EXPECT_FALSE(parseTenantList("").ok());

    std::vector<TenantSpec> mix = defaultTenantMix();
    ASSERT_EQ(mix.size(), 4u);
    for (const TenantSpec &t : mix) {
        EXPECT_TRUE(t.check().ok());
        auto desc = servingKernelDesc(t);
        ASSERT_TRUE(desc.ok());
        EXPECT_TRUE(desc.value().check().ok());
    }
}

// ---------------------------------------------------------------
// Arrival generators
// ---------------------------------------------------------------

ArrivalConfig
baseConfig(ArrivalKind kind)
{
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.ratePerKcycle = 0.5;
    cfg.horizon = 400000;
    cfg.numTenants = 4;
    cfg.seed = 42;
    return cfg;
}

TEST(Arrivals, GeneratorsAreDeterministic)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson,
                             ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalConfig cfg = baseConfig(kind);
        std::vector<Arrival> a = generateArrivals(cfg);
        std::vector<Arrival> b = generateArrivals(cfg);
        ASSERT_EQ(a.size(), b.size()) << toString(kind);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].cycle, b[i].cycle);
            EXPECT_EQ(a[i].tenant, b[i].tenant);
            EXPECT_EQ(a[i].seq, b[i].seq);
        }
        cfg.seed = 43;
        std::vector<Arrival> c = generateArrivals(cfg);
        bool differs = c.size() != a.size();
        for (std::size_t i = 0; !differs && i < a.size(); ++i)
            differs = a[i].cycle != c[i].cycle;
        EXPECT_TRUE(differs) << toString(kind)
                             << ": seed has no effect";
    }
}

TEST(Arrivals, StreamIsSortedWithPerTenantSeqs)
{
    std::vector<Arrival> a =
        generateArrivals(baseConfig(ArrivalKind::Bursty));
    ASSERT_FALSE(a.empty());
    std::vector<std::uint64_t> nextSeq(4, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) {
            EXPECT_TRUE(a[i - 1].cycle < a[i].cycle ||
                        (a[i - 1].cycle == a[i].cycle &&
                         a[i - 1].tenant <= a[i].tenant));
        }
        ASSERT_GE(a[i].tenant, 0);
        ASSERT_LT(a[i].tenant, 4);
        EXPECT_EQ(a[i].seq, nextSeq[a[i].tenant]++);
    }
}

TEST(Arrivals, MeanRateWithinTolerance)
{
    // Long horizon so the sample mean concentrates: expected count
    // is rate/kcycle * horizon/1000 * tenants = 0.5*4000*4 = 8000.
    for (ArrivalKind kind : {ArrivalKind::Poisson,
                             ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        ArrivalConfig cfg = baseConfig(kind);
        cfg.horizon = 4000000;
        const double expected = cfg.ratePerKcycle *
                                (cfg.horizon / 1000.0) *
                                cfg.numTenants;
        const double got =
            static_cast<double>(generateArrivals(cfg).size());
        EXPECT_NEAR(got / expected, 1.0, 0.06) << toString(kind);
    }
}

TEST(Arrivals, KindRoundTripsThroughNames)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson,
                             ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        auto parsed = parseArrivalKind(toString(kind));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), kind);
    }
    EXPECT_FALSE(parseArrivalKind("fractal").ok());
}

// ---------------------------------------------------------------
// Trace file round trip
// ---------------------------------------------------------------

struct TraceFileFixture : public ::testing::Test
{
    TraceFileFixture()
    {
        path = "/tmp/gqos_arrivals_" + std::to_string(::getpid()) +
               ".jsonl";
        FaultInjector::instance().clear();
    }
    ~TraceFileFixture() override
    {
        std::filesystem::remove(path);
        FaultInjector::instance().clear();
    }
    std::string path;
};

TEST_F(TraceFileFixture, RoundTripIsByteIdentical)
{
    std::vector<Arrival> a =
        generateArrivals(baseConfig(ArrivalKind::Poisson));
    ASSERT_TRUE(writeArrivalTrace(path, a).ok());
    auto loaded = loadArrivalTrace(path, 4);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(loaded.value()[i].cycle, a[i].cycle);
        EXPECT_EQ(loaded.value()[i].tenant, a[i].tenant);
        EXPECT_EQ(loaded.value()[i].seq, a[i].seq);
    }
    // Re-writing the loaded stream reproduces the file exactly.
    std::string path2 = path + ".rt";
    ASSERT_TRUE(writeArrivalTrace(path2, loaded.value()).ok());
    std::ifstream f1(path), f2(path2);
    std::string s1((std::istreambuf_iterator<char>(f1)),
                   std::istreambuf_iterator<char>());
    std::string s2((std::istreambuf_iterator<char>(f2)),
                   std::istreambuf_iterator<char>());
    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(s1, s2);
    std::filesystem::remove(path2);
}

TEST_F(TraceFileFixture, MalformedLinesAreSkippedNotFatal)
{
    std::ofstream out(path);
    out << "{\"cycle\":100,\"tenant\":0,\"seq\":0}\n"
        << "this is not json\n"
        << "{\"cycle\":90,\"tenant\":1,\"seq\":0}\n"
        << "{\"cycle\":200,\"tenant\":9,\"seq\":1}\n" // bad tenant
        << "\n"
        // Not plain unsigned integers.
        << "{\"cycle\":+5,\"tenant\":1,\"seq\":1}\n"
        << "{\"cycle\":1e3,\"tenant\":1,\"seq\":2}\n"
        << "{\"cycle\":7,\"tenant\":-1,\"seq\":3}\n"
        << "{\"cycle\":8,\"tenant\":1,\"seq\":-4}\n"
        << " { \"cycle\" : 300 , \"tenant\" : 1 , \"seq\" : 1 }\n";
    out.close();
    std::uint64_t malformed = 0;
    auto loaded = loadArrivalTrace(path, 2, &malformed);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().size(), 3u);
    EXPECT_EQ(malformed, 6u); // blank lines are not counted
    // Out-of-order entries were re-sorted.
    EXPECT_EQ(loaded.value()[0].cycle, 90u);
    EXPECT_EQ(loaded.value()[0].tenant, 1);
}

TEST_F(TraceFileFixture, NegativeCycleIsMalformed)
{
    // "-5" must not wrap to 2^64 - 5 and sort last, where it would
    // push the serving hard stop past 2^64.
    std::ofstream(path) << "{\"cycle\":100,\"tenant\":0,\"seq\":0}\n"
                        << "{\"cycle\":-5,\"tenant\":1,\"seq\":0}\n";
    std::uint64_t malformed = 0;
    auto loaded = loadArrivalTrace(path, 2, &malformed);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(malformed, 1u);
    ASSERT_EQ(loaded.value().size(), 1u);
    EXPECT_EQ(loaded.value()[0].cycle, 100u);
}

TEST_F(TraceFileFixture, MissingFileIsAnError)
{
    EXPECT_FALSE(loadArrivalTrace("/nonexistent/t.jsonl", 4).ok());
}

TEST_F(TraceFileFixture, ArrivalParseFaultDropsLines)
{
    std::vector<Arrival> a =
        generateArrivals(baseConfig(ArrivalKind::Poisson));
    ASSERT_TRUE(writeArrivalTrace(path, a).ok());
    auto &fi = FaultInjector::instance();
    fi.setRate("arrival_parse", 1.0);
    fi.reseed(5);
    std::uint64_t malformed = 0;
    auto loaded = loadArrivalTrace(path, 4, &malformed);
    fi.clear();
    ASSERT_TRUE(loaded.ok()); // degraded, not dead
    EXPECT_TRUE(loaded.value().empty());
    EXPECT_EQ(malformed, a.size());
}

// ---------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------

std::vector<TenantSpec>
admissionMix()
{
    // One tenant per class, tiny queues so thresholds are easy to
    // hit: aggregate capacity 12, L1 at 6, L2 at 9, L3 at >= 12.
    std::vector<TenantSpec> mix(3);
    mix[0] = {"g", "sgemm", QosClass::Guaranteed, 0.5, 10000, 4};
    mix[1] = {"e", "lbm", QosClass::Elastic, 0.3, 10000, 4};
    mix[2] = {"b", "histo", QosClass::BestEffort, 0.0, 10000, 4};
    return mix;
}

struct AdmissionFixture : public ::testing::Test
{
    AdmissionFixture() : ctrl(admissionMix())
    {
        FaultInjector::instance().clear();
    }
    ~AdmissionFixture() override
    {
        FaultInjector::instance().clear();
    }

    /** Admit @p n requests for @p tenant (expects success). */
    void
    fill(int tenant, int n, Cycle now = 0)
    {
        for (int i = 0; i < n; ++i) {
            ASSERT_EQ(ctrl.onArrival(tenant, seq++, now, 0.0),
                      AdmitOutcome::Admitted);
        }
    }

    AdmissionController ctrl;
    std::uint64_t seq = 0;
};

TEST_F(AdmissionFixture, BoundedQueueBackpressure)
{
    fill(0, 4);
    EXPECT_EQ(ctrl.onArrival(0, seq++, 0, 0.0),
              AdmitOutcome::RejectedQueueFull);
    EXPECT_EQ(ctrl.queueDepth(0), 4u);
    ctrl.popFront(0);
    EXPECT_EQ(ctrl.onArrival(0, seq++, 0, 0.0),
              AdmitOutcome::Admitted);
}

TEST_F(AdmissionFixture, LadderStepsUpAndDownWithHysteresis)
{
    // Asymmetric caps so L2 is reachable without the best-effort
    // queue (which L1 sheds): 6 + 4 + 2 = 12 aggregate.
    std::vector<TenantSpec> mix = admissionMix();
    mix[0].queueCap = 6;
    mix[2].queueCap = 2;
    AdmissionController c(mix);
    auto admit = [&](int tenant, int n) {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(c.onArrival(tenant, seq++, 0, 0.0),
                      AdmitOutcome::Admitted);
    };
    EXPECT_EQ(c.level(), 0);
    admit(0, 6); // backlog 6/12 = L1 threshold
    EXPECT_TRUE(c.updateLevel());
    EXPECT_EQ(c.level(), 1);
    admit(1, 4); // backlog 10/12 = 0.83 -> L2
    EXPECT_TRUE(c.updateLevel());
    EXPECT_EQ(c.level(), 2);
    // Down-hysteresis: L2 holds until backlog < (0.75-0.10)*12
    // = 7.8, so dropping to 8 does not step down.
    c.popFront(0);
    c.popFront(0);
    EXPECT_FALSE(c.updateLevel());
    EXPECT_EQ(c.level(), 2);
    c.popFront(0); // backlog 7 < 7.8
    EXPECT_TRUE(c.updateLevel());
    EXPECT_EQ(c.level(), 1);
}

TEST_F(AdmissionFixture, LadderShedsByClass)
{
    fill(0, 4);
    fill(1, 2);
    ASSERT_TRUE(ctrl.updateLevel()); // backlog 6/12 -> L1
    // L1 sheds BestEffort arrivals; Elastic is still admitted.
    EXPECT_EQ(ctrl.onArrival(2, seq++, 0, 0.0),
              AdmitOutcome::RejectedShed);
    EXPECT_EQ(ctrl.onArrival(1, seq++, 0, 0.0),
              AdmitOutcome::Admitted);

    // L3 needs the full aggregate (>= 0.95*12 = 11.4), which the
    // shed best-effort queue can no longer contribute to — fill all
    // three queues while the ladder still reads L0.
    AdmissionController c2(admissionMix());
    for (int t = 0; t < 3; ++t) {
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(c2.onArrival(t, i, 0, 0.0),
                      AdmitOutcome::Admitted);
    }
    ASSERT_TRUE(c2.updateLevel());
    EXPECT_EQ(c2.level(), 3);
    for (int i = 0; i < 3; ++i)
        c2.popFront(1); // make room in the elastic queue
    // L3 sheds Elastic outright; Guaranteed still only bounded by
    // its own queue.
    EXPECT_EQ(c2.onArrival(1, 99, 0, 0.0),
              AdmitOutcome::RejectedShed);
    EXPECT_EQ(c2.onArrival(0, 99, 0, 0.0),
              AdmitOutcome::RejectedQueueFull);
    c2.popFront(0);
    EXPECT_EQ(c2.onArrival(0, 100, 0, 0.0),
              AdmitOutcome::Admitted);
}

TEST_F(AdmissionFixture, ProjectionRejectsElasticAtL2)
{
    // Reach L2 with guaranteed + besteffort backlog.
    fill(0, 4);
    fill(2, 4);
    fill(1, 1);
    ASSERT_TRUE(ctrl.updateLevel());
    ASSERT_EQ(ctrl.level(), 2);
    // Elastic SLO is 10000 cycles; with one queued request and a
    // 9000-cycle service estimate the projected finish (2 * 9000)
    // misses, so the arrival is rejected.
    EXPECT_EQ(ctrl.onArrival(1, seq++, 0, 9000.0),
              AdmitOutcome::RejectedProjected);
    // A fast service estimate passes.
    EXPECT_EQ(ctrl.onArrival(1, seq++, 0, 2000.0),
              AdmitOutcome::Admitted);
    // Guaranteed is never projection-rejected.
    ctrl.popFront(0);
    EXPECT_EQ(ctrl.onArrival(0, seq++, 0, 1e9),
              AdmitOutcome::Admitted);
}

TEST_F(AdmissionFixture, ProjectionFaultFailsOpen)
{
    fill(0, 4);
    fill(2, 4);
    fill(1, 1);
    ASSERT_TRUE(ctrl.updateLevel());
    ASSERT_EQ(ctrl.level(), 2);
    auto &fi = FaultInjector::instance();
    fi.setRate("admission_project", 1.0);
    // The projection would reject; with the estimator faulted the
    // controller admits on queue space alone.
    EXPECT_EQ(ctrl.onArrival(1, seq++, 0, 9000.0),
              AdmitOutcome::Admitted);
    EXPECT_GT(fi.injected("admission_project"), 0u);
    fi.clear();
}

TEST_F(AdmissionFixture, QueueOverflowFaultForcesBackpressure)
{
    auto &fi = FaultInjector::instance();
    fi.setRate("queue_overflow", 1.0);
    EXPECT_EQ(ctrl.onArrival(0, seq++, 0, 0.0),
              AdmitOutcome::RejectedQueueFull);
    EXPECT_GT(fi.injected("queue_overflow"), 0u);
    fi.clear();
    EXPECT_EQ(ctrl.onArrival(0, seq++, 0, 0.0),
              AdmitOutcome::Admitted);
}

TEST_F(AdmissionFixture, DeadlineAbandonmentDrainsTheQueue)
{
    fill(0, 3, 1000); // SLO 10000 -> deadlines at 11000
    EXPECT_TRUE(ctrl.expireAbandoned(0, 5000).empty());
    std::vector<QueuedRequest> dropped =
        ctrl.expireAbandoned(0, 11001);
    EXPECT_EQ(dropped.size(), 3u);
    EXPECT_EQ(ctrl.queueDepth(0), 0u);
}

TEST_F(AdmissionFixture, DispatchHoldsElasticWhileGuaranteedWaits)
{
    fill(0, 4);
    fill(2, 4);
    fill(1, 2);
    ASSERT_TRUE(ctrl.updateLevel());
    ASSERT_GE(ctrl.level(), 2);
    EXPECT_TRUE(ctrl.dispatchAllowed(0));
    EXPECT_FALSE(ctrl.dispatchAllowed(1)); // guaranteed backlogged
    // Drain the guaranteed queue: the hold lifts.
    for (int i = 0; i < 4; ++i)
        ctrl.popFront(0);
    EXPECT_TRUE(ctrl.dispatchAllowed(1));
}

TEST_F(AdmissionFixture, DrainAllReportsResidualPerTenant)
{
    fill(0, 2);
    fill(1, 3);
    std::vector<std::uint64_t> dropped = ctrl.drainAll();
    ASSERT_EQ(dropped.size(), 3u);
    EXPECT_EQ(dropped[0], 2u);
    EXPECT_EQ(dropped[1], 3u);
    EXPECT_EQ(dropped[2], 0u);
    EXPECT_EQ(ctrl.totalBacklog(), 0u);
}

// ---------------------------------------------------------------
// Gpu manual-launch mode
// ---------------------------------------------------------------

TEST(ManualLaunch, GridLifecycleAndExactCompletionCycles)
{
    GpuConfig cfg = configByName("default").value();
    Gpu gpu(cfg);
    KernelDesc desc =
        servingKernelDesc(defaultTenantMix()[0]).value();
    const KernelId k = 0;
    gpu.launch({&desc});
    gpu.setManualLaunch(k);
    EXPECT_FALSE(gpu.gridActive(k));
    EXPECT_EQ(gpu.gridsCompleted(k), 0u);

    auto policy =
        makePolicy("even", {QosSpec::nonQos()}, cfg).value();
    policy->onLaunch(gpu);
    SimEngine engine(EngineKind::Event, 500000);

    // No grid started: the machine has nothing to run.
    engine.runUntil(gpu, *policy, 2000);
    EXPECT_EQ(gpu.gridsCompleted(k), 0u);

    gpu.startGrid(k);
    EXPECT_TRUE(gpu.gridActive(k));
    Cycle limit = 2000;
    while (gpu.gridActive(k) && limit < 400000) {
        limit += 2000;
        engine.runUntil(gpu, *policy, limit);
    }
    ASSERT_FALSE(gpu.gridActive(k)) << "grid never completed";
    EXPECT_EQ(gpu.gridsCompleted(k), 1u);
    const Cycle done1 = gpu.lastGridCompletedAt(k);
    EXPECT_GT(done1, 0u);
    EXPECT_LE(done1, gpu.now());

    // Completion cycle is exact: it does not change just because we
    // keep stepping past it, and the second grid completes later.
    engine.runUntil(gpu, *policy, limit + 5000);
    EXPECT_EQ(gpu.lastGridCompletedAt(k), done1);
    gpu.startGrid(k);
    limit = gpu.now();
    while (gpu.gridActive(k) && limit < 800000) {
        limit += 2000;
        engine.runUntil(gpu, *policy, limit);
    }
    EXPECT_EQ(gpu.gridsCompleted(k), 2u);
    EXPECT_GT(gpu.lastGridCompletedAt(k), done1);
}

// ---------------------------------------------------------------
// Serving driver end to end
// ---------------------------------------------------------------

std::vector<TenantSpec>
servingMix()
{
    // Loose SLOs keep the healthy-load test fast and stable.
    std::vector<TenantSpec> mix(3);
    mix[0] = {"g", "sgemm", QosClass::Guaranteed, 0.4, 40000, 8};
    mix[1] = {"e", "stencil", QosClass::Elastic, 0.2, 60000, 8};
    mix[2] = {"b", "histo", QosClass::BestEffort, 0.0, 80000, 8};
    return mix;
}

ServingOptions
servingOpts()
{
    ServingOptions opts;
    opts.caseKey = "test";
    opts.tick = 512;
    opts.drainGrace = 400000;
    return opts;
}

std::vector<Arrival>
servingArrivals(double ratePerKcycle, Cycle horizon,
                std::uint64_t seed = 9)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerKcycle = ratePerKcycle;
    cfg.horizon = horizon;
    cfg.numTenants = 3;
    cfg.seed = seed;
    return generateArrivals(cfg);
}

ServingReport
runServing(const std::vector<Arrival> &arrivals,
           RecordingTraceSink *sink,
           ServingOptions opts = servingOpts(),
           std::vector<TenantSpec> mix = servingMix(),
           int forceStallTenant = -1)
{
    auto driver = ServingDriver::make(std::move(mix), opts);
    EXPECT_TRUE(driver.ok());
    if (forceStallTenant >= 0)
        driver.value()->forceStallForTest(forceStallTenant);
    auto report = driver.value()->run(arrivals, sink);
    EXPECT_TRUE(report.ok());
    return report.value();
}

void
expectConservation(const ServingReport &r)
{
    for (const TenantServingStats &t : r.tenants) {
        EXPECT_EQ(t.arrivals, t.admitted + t.rejectedQueueFull +
                                  t.rejectedShed +
                                  t.rejectedProjected)
            << t.name;
        EXPECT_EQ(t.admitted, t.completed + t.abandoned +
                                  t.droppedAtShutdown)
            << t.name;
    }
}

TEST(ServingDriver, HealthyLoadCompletesEverythingInOrder)
{
    RecordingTraceSink sink;
    std::vector<Arrival> arrivals = servingArrivals(0.02, 300000);
    ASSERT_FALSE(arrivals.empty());
    ServingReport r = runServing(arrivals, &sink);
    expectConservation(r);
    EXPECT_TRUE(r.drained);
    EXPECT_FALSE(r.engineStalled);
    EXPECT_FALSE(r.anyTenantStalled);
    EXPECT_EQ(r.finalLevel, 0);
    std::uint64_t total = 0;
    for (const TenantServingStats &t : r.tenants) {
        total += t.arrivals;
        EXPECT_EQ(t.completed, t.admitted) << t.name;
        EXPECT_EQ(t.rejectedShed, 0u) << t.name;
        EXPECT_LE(t.maxQueueDepth, 8u) << t.name;
        if (t.completed) {
            EXPECT_GT(t.p50Latency, 0u) << t.name;
            EXPECT_LE(t.p50Latency, t.p99Latency) << t.name;
        }
    }
    EXPECT_EQ(total, arrivals.size());

    // The structured trace narrates the run: every arrival has a
    // record, and per tenant the completions match the report.
    std::uint64_t arrivalEvents = 0, completeEvents = 0;
    for (const ServingEventRecord &e :
         sink.all<ServingEventRecord>()) {
        EXPECT_EQ(e.caseKey, "test");
        if (e.event == "arrival")
            arrivalEvents++;
        if (e.event == "complete") {
            completeEvents++;
            EXPECT_GT(e.latency, 0u);
        }
    }
    EXPECT_EQ(arrivalEvents, arrivals.size());
    std::uint64_t completed = 0;
    for (const TenantServingStats &t : r.tenants)
        completed += t.completed;
    EXPECT_EQ(completeEvents, completed);
}

TEST(ServingDriver, SameSeedRunsAreIdentical)
{
    std::vector<Arrival> arrivals = servingArrivals(0.05, 200000);
    RecordingTraceSink s1, s2;
    ServingReport a = runServing(arrivals, &s1);
    ServingReport b = runServing(arrivals, &s2);
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.levelChanges, b.levelChanges);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].completed, b.tenants[i].completed);
        EXPECT_EQ(a.tenants[i].p50Latency, b.tenants[i].p50Latency);
        EXPECT_EQ(a.tenants[i].p99Latency, b.tenants[i].p99Latency);
        EXPECT_DOUBLE_EQ(a.tenants[i].goodput,
                         b.tenants[i].goodput);
    }
    const auto e1 = s1.all<ServingEventRecord>();
    const auto e2 = s2.all<ServingEventRecord>();
    ASSERT_EQ(e1.size(), e2.size());
    for (std::size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].cycle, e2[i].cycle);
        EXPECT_EQ(e1[i].event, e2[i].event);
        EXPECT_EQ(e1[i].tenant, e2[i].tenant);
        EXPECT_EQ(e1[i].request, e2[i].request);
    }
}

TEST(ServingDriver, OverloadDegradesElasticBeforeGuaranteed)
{
    // ~6x the healthy rate with small queues: the ladder must
    // engage. Guaranteed requests are never shed or projected —
    // their only loss paths are their own bounded queue and
    // deadline abandonment.
    std::vector<TenantSpec> mix = servingMix();
    for (TenantSpec &t : mix)
        t.queueCap = 4;
    RecordingTraceSink sink;
    std::vector<Arrival> arrivals = servingArrivals(0.3, 250000);
    ServingOptions opts = servingOpts();
    opts.drainGrace = 100000;
    ServingReport r = runServing(arrivals, &sink, opts, mix);
    expectConservation(r);
    EXPECT_FALSE(r.engineStalled);
    EXPECT_GT(r.levelChanges, 0u);
    const TenantServingStats &g = r.tenants[0];
    const TenantServingStats &e = r.tenants[1];
    const TenantServingStats &b = r.tenants[2];
    EXPECT_EQ(g.rejectedShed, 0u);
    EXPECT_EQ(g.rejectedProjected, 0u);
    // The ladder sheds best-effort and degrades elastic.
    EXPECT_GT(b.rejectedShed, 0u);
    EXPECT_GT(e.rejectedShed + e.rejectedProjected + e.abandoned,
              0u);
    // Bounded queues held everywhere.
    for (const TenantServingStats &t : r.tenants)
        EXPECT_LE(t.maxQueueDepth, 4u) << t.name;
    // Degradation shows up in the trace as structured records.
    bool sawDegrade = false;
    for (const ServingEventRecord &ev :
         sink.all<ServingEventRecord>())
        sawDegrade |= ev.event == "degrade";
    EXPECT_TRUE(sawDegrade);
}

TEST(ServingDriver, WatchdogTripsOnFrozenTenantAndShutsDownClean)
{
    RecordingTraceSink sink;
    // Enough load that the frozen tenant has live work; a short
    // watchdog window so the test stays fast. 0.1 simulated ms at
    // 1.216 GHz is ~121600 cycles.
    std::vector<Arrival> arrivals = servingArrivals(0.05, 250000);
    ServingOptions opts = servingOpts();
    opts.watchdogMs = 0.1;
    ServingReport r =
        runServing(arrivals, &sink, opts, servingMix(), 1);
    expectConservation(r);
    EXPECT_TRUE(r.anyTenantStalled);
    EXPECT_TRUE(r.tenants[1].stalled);
    EXPECT_FALSE(r.tenants[0].stalled);
    bool sawStall = false;
    for (const ServingEventRecord &ev :
         sink.all<ServingEventRecord>()) {
        if (ev.event == "tenant_stalled") {
            sawStall = true;
            EXPECT_EQ(ev.tenant, "e");
        }
    }
    EXPECT_TRUE(sawStall);
}

TEST(ServingDriver, MetricsCarryEngineCounters)
{
    MetricsRegistry metrics;
    ServingOptions opts = servingOpts();
    opts.metrics = &metrics;
    ServingReport r =
        runServing(servingArrivals(0.02, 150000), nullptr, opts);
    std::ostringstream json;
    metrics.writeJson(json);
    for (const char *name :
         {"engine.stepped_cycles", "engine.skipped_cycles",
          "engine.control_points", "engine.sm_skipped_cycles"}) {
        EXPECT_NE(json.str().find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name;
    }
    const std::uint64_t stepped =
        metrics.counter("engine.stepped_cycles").value();
    const std::uint64_t skipped =
        metrics.counter("engine.skipped_cycles").value();
    EXPECT_GT(stepped, 0u);
    EXPECT_EQ(stepped + skipped, r.endCycle);
}

TEST(ServingDriver, RejectsInvalidOptions)
{
    ServingOptions opts = servingOpts();
    opts.tick = 0;
    EXPECT_FALSE(ServingDriver::make(servingMix(), opts).ok());
    opts = servingOpts();
    opts.policy = "nosuchpolicy";
    EXPECT_FALSE(ServingDriver::make(servingMix(), opts).ok());
    EXPECT_FALSE(ServingDriver::make({}, servingOpts()).ok());
}

TEST(ServingDriver, ServingPolicyAliasIsKnown)
{
    std::vector<std::string> known = knownPolicies();
    bool found = false;
    for (const std::string &p : known)
        found |= p == "serving";
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------
// RecordingTraceSink replay
// ---------------------------------------------------------------

TEST(BufferingSink, ReplayPreservesOrderAcrossRecordKinds)
{
    RecordingTraceSink buf;
    ServingEventRecord s;
    s.caseKey = "c";
    s.event = "arrival";
    s.cycle = 1;
    buf.onServingEvent(s);
    EpochMemRecord m;
    m.caseKey = "c";
    m.epoch = 0;
    buf.onEpochMem(m);
    s.event = "complete";
    s.cycle = 2;
    buf.onServingEvent(s);
    EXPECT_EQ(buf.size(), 3u);

    RecordingTraceSink out;
    buf.replayTo(out);
    const auto served = out.all<ServingEventRecord>();
    ASSERT_EQ(out.size(), 3u);
    ASSERT_EQ(served.size(), 2u);
    ASSERT_EQ(out.all<EpochMemRecord>().size(), 1u);
    EXPECT_EQ(served[0].event, "arrival");
    EXPECT_EQ(served[1].event, "complete");
}

} // anonymous namespace
} // namespace gqos
