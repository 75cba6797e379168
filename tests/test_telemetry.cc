/**
 * @file
 * Telemetry tests: trace-record conservation laws on a Rollover
 * co-run (instruction deltas telescope to the run total, epoch
 * indices are contiguous, elastic epochs never exceed the nominal
 * length), JSONL well-formedness, observer-only guarantee (identical
 * simulation with and without a sink), the metrics registry and the
 * structured run report.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/result.hh"
#include "harness/run_report.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"
#include "tests/test_util.hh"

namespace gqos
{
namespace
{

/** Co-run scaffold: two kernels, one policy, one optional sink. */
struct TracedCoRun
{
    GpuConfig cfg = defaultConfig();
    Gpu gpu{cfg};
    KernelDesc q = test::tinyComputeKernel("q");
    KernelDesc b = test::tinyMemoryKernel("b");
    std::unique_ptr<SharingPolicy> policy;

    explicit TracedCoRun(const std::string &name)
    {
        q.gridTbs = 4000;
        b.gridTbs = 4000;
        gpu.launch({&q, &b});
        policy = okOrDie(makePolicy(
            name, {QosSpec::qos(50.0), QosSpec::nonQos()}, cfg));
    }

    /** Attach, launch, drive @p cycles, finish. */
    void
    run(TraceSink *sink, MetricsRegistry *metrics, Cycle cycles)
    {
        if (sink || metrics)
            policy->attachTelemetry(sink, metrics);
        policy->onLaunch(gpu);
        test::drive(gpu, *policy, cycles);
        policy->onFinish(gpu);
    }
};

/**
 * Minimal JSON object check: one line, balanced braces/brackets
 * outside string literals, string escapes honoured.
 */
bool
looksLikeJsonObject(const std::string &line)
{
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
        return false;
    int depth = 0;
    bool in_str = false, esc = false;
    for (char c : line) {
        if (esc) {
            esc = false;
            continue;
        }
        if (in_str) {
            if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; break;
          case '{':
          case '[': depth++; break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            break;
          default: break;
        }
    }
    return depth == 0 && !in_str;
}

TEST(Trace, InstrDeltasSumToRunTotal)
{
    TracedCoRun run("rollover");
    RecordingTraceSink sink;
    // Deliberately end mid-epoch so the final-partial record must
    // cover the tail for the sums to telescope.
    const Cycle cycles =
        12 * run.cfg.epochLength + run.cfg.epochLength / 3;
    run.run(&sink, nullptr, cycles);

    const auto records = sink.all<EpochKernelRecord>();
    ASSERT_FALSE(records.empty());
    std::vector<std::uint64_t> sums(2, 0);
    bool saw_final = false;
    for (const EpochKernelRecord &rec : records) {
        ASSERT_GE(rec.kernel, 0);
        ASSERT_LT(rec.kernel, 2);
        sums[rec.kernel] += rec.instrDelta;
        saw_final = saw_final || rec.finalPartial;
    }
    EXPECT_TRUE(saw_final);
    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(sums[k],
                  run.gpu.threadInstrs(static_cast<KernelId>(k)))
            << "kernel " << k;
    }
}

TEST(Trace, EpochIndicesAreContiguous)
{
    TracedCoRun run("rollover");
    RecordingTraceSink sink;
    run.run(&sink, nullptr, 10 * run.cfg.epochLength);

    std::vector<int> per_kernel_next(2, 0);
    for (const EpochKernelRecord &rec : sink.all<EpochKernelRecord>())
        EXPECT_EQ(rec.epoch, per_kernel_next[rec.kernel]++);
    EXPECT_EQ(per_kernel_next[0], per_kernel_next[1]);
    EXPECT_GE(per_kernel_next[0], 9);

    int next_mem = 0;
    for (const EpochMemRecord &rec : sink.all<EpochMemRecord>())
        EXPECT_EQ(rec.epoch, next_mem++);
    EXPECT_EQ(next_mem, per_kernel_next[0]);
}

TEST(Trace, ElasticEpochLengthNeverExceedsNominal)
{
    TracedCoRun run("elastic");
    RecordingTraceSink sink;
    run.run(&sink, nullptr, 15 * run.cfg.epochLength);

    const auto records = sink.all<EpochKernelRecord>();
    ASSERT_FALSE(records.empty());
    bool shortened = false;
    for (const EpochKernelRecord &rec : records) {
        EXPECT_GE(rec.length, 1u);
        EXPECT_LE(rec.length, run.cfg.epochLength);
        shortened = shortened || rec.length < run.cfg.epochLength;
        EXPECT_EQ(rec.start + rec.length <= 15 * run.cfg.epochLength,
                  true);
    }
    // The whole point of Elastic: some epoch restarted early.
    EXPECT_TRUE(shortened);
}

TEST(Trace, JsonlLinesParseIndividually)
{
    const std::string path =
        testing::TempDir() + "gqos_trace_test.jsonl";
    {
        TracedCoRun run("rollover");
        auto sink = okOrDie(JsonlTraceSink::open(path));
        run.run(sink.get(), nullptr, 6 * run.cfg.epochLength);
        sink->flush();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0, kernel_recs = 0;
    while (std::getline(in, line)) {
        lines++;
        EXPECT_TRUE(looksLikeJsonObject(line)) << line;
        EXPECT_NE(line.find("\"type\":\""), std::string::npos);
        if (line.find("\"type\":\"epoch_kernel\"") !=
            std::string::npos)
            kernel_recs++;
    }
    EXPECT_GE(lines, 5);
    EXPECT_GE(kernel_recs, 5);
    std::remove(path.c_str());
}

TEST(Trace, SinkIsObserverOnly)
{
    // Identical co-runs, one traced and metered, one bare: every
    // simulation outcome must match exactly.
    const Cycle cycles = 8 * defaultConfig().epochLength + 123;
    TracedCoRun bare("rollover");
    bare.run(nullptr, nullptr, cycles);

    TracedCoRun traced("rollover");
    RecordingTraceSink sink;
    MetricsRegistry metrics;
    traced.run(&sink, &metrics, cycles);

    for (int k = 0; k < 2; ++k) {
        KernelId kid = static_cast<KernelId>(k);
        EXPECT_EQ(bare.gpu.threadInstrs(kid),
                  traced.gpu.threadInstrs(kid));
        EXPECT_EQ(bare.gpu.totalResidentTbs(kid),
                  traced.gpu.totalResidentTbs(kid));
    }
    EXPECT_GT(metrics.counter("qos.epochs").value(), 0u);
}

TEST(Trace, CaseLabelingSinkStampsEveryRecord)
{
    const std::string key = "rollover|q:0.9000|b:0.0000";
    RecordingTraceSink inner;
    CaseLabelingSink labeled(&inner, key);
    labeled.onEpochKernel(EpochKernelRecord{});
    labeled.onEpochMem(EpochMemRecord{});
    labeled.onAllocEvent(AllocEventRecord{});
    labeled.onServingEvent(ServingEventRecord{});
    labeled.onSmSlice(SmSliceRecord{});
    EXPECT_EQ(inner.size(), 5u);
    // Exactly one record of each kind, each stamped.
    const auto stampedOnce = [&](const auto &records) {
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(records[0].caseKey, key);
    };
    stampedOnce(inner.all<EpochKernelRecord>());
    stampedOnce(inner.all<EpochMemRecord>());
    stampedOnce(inner.all<AllocEventRecord>());
    stampedOnce(inner.all<ServingEventRecord>());
    stampedOnce(inner.all<SmSliceRecord>());
}

/**
 * A decorator that overrides only the typed entry points and never
 * onRecord(), the way an out-of-tree timing wrapper does. It logs
 * "kind case" per record it receives.
 */
class TypedOnlySink : public TraceSink
{
  public:
    void
    onEpochKernel(const EpochKernelRecord &rec) override
    {
        seen.push_back("epoch_kernel " + rec.caseKey);
    }
    void
    onEpochMem(const EpochMemRecord &rec) override
    {
        seen.push_back("epoch_mem " + rec.caseKey);
    }
    void
    onAllocEvent(const AllocEventRecord &rec) override
    {
        seen.push_back("alloc_event " + rec.caseKey);
    }
    void
    onServingEvent(const ServingEventRecord &rec) override
    {
        seen.push_back("serving_event " + rec.caseKey);
    }
    void
    onSmSlice(const SmSliceRecord &rec) override
    {
        seen.push_back("sm_slice " + rec.caseKey);
    }

    std::vector<std::string> seen;
};

/** One record of each kind, in a fixed order, all keyed @p key. */
void
emitEveryKind(TraceSink &sink, const std::string &key)
{
    EpochKernelRecord ek;
    ek.caseKey = key;
    sink.onEpochKernel(ek);
    SmSliceRecord sl;
    sl.caseKey = key;
    sink.onSmSlice(sl);
    EpochMemRecord em;
    em.caseKey = key;
    sink.onEpochMem(em);
    ServingEventRecord sv;
    sv.caseKey = key;
    sink.onServingEvent(sv);
    AllocEventRecord al;
    al.caseKey = key;
    sink.onAllocEvent(al);
}

std::vector<std::string>
everyKind(const std::string &key)
{
    return {"epoch_kernel " + key, "sm_slice " + key,
            "epoch_mem " + key, "serving_event " + key,
            "alloc_event " + key};
}

TEST(Trace, TypedOnlySinkSeesEveryKindBehindCaseLabeling)
{
    TypedOnlySink typed;
    CaseLabelingSink labeled(&typed, "k");
    emitEveryKind(labeled, "");
    EXPECT_EQ(typed.seen, everyKind("k"));
}

TEST(Trace, TypedOnlySinkSeesEveryKindBehindTee)
{
    TypedOnlySink a, b;
    TeeTraceSink tee(&a, &b);
    emitEveryKind(tee, "t");
    EXPECT_EQ(a.seen, everyKind("t"));
    EXPECT_EQ(b.seen, everyKind("t"));
}

TEST(Trace, TypedOnlySinkSeesEveryKindOnReplay)
{
    RecordingTraceSink recorded;
    emitEveryKind(recorded, "r");
    EXPECT_EQ(recorded.size(), 5u);
    TypedOnlySink typed;
    recorded.replayTo(typed);
    EXPECT_EQ(typed.seen, everyKind("r"));
}

TEST(Trace, JsonlGoldenLinePerKind)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::string key = "fig\"5\"\\a\tb";

    EpochKernelRecord ek;
    ek.caseKey = key;
    ek.epoch = 3;
    ek.start = 30000;
    ek.length = 9000;
    ek.finalPartial = true;
    ek.kernel = 1;
    ek.isQos = true;
    ek.goalIpc = 512.5;
    ek.nonQosGoal = 0.0;
    ek.alpha = 1.25;
    ek.ipcEpoch = 480.0;
    ek.ipcHistory = 496.75;
    ek.attainment = std::nan("");
    ek.quotaGranted = 4.5e6;
    ek.instrDelta = 4320000;
    ek.completedTbs = 12;
    ek.preemptedTbs = 2;
    ek.quotaRefills = 1;
    ek.tbTarget = 30;
    ek.tbResident = 28;
    ek.iwAverage = 3.5;
    ek.gatedFraction = 0.25;
    ek.leftoverPerSm = {1.5, -inf, 0.0};

    EpochMemRecord em;
    em.caseKey = key;
    em.epoch = 3;
    em.start = 30000;
    em.length = 9000;
    em.l1Accesses = 100;
    em.l1Misses = 40;
    em.l2Accesses = 40;
    em.l2Misses = 10;
    em.dramAccesses = 9;
    em.contextLines = 7;

    AllocEventRecord al;
    al.caseKey = key;
    al.epoch = 2;
    al.cycle = 25000;
    al.sm = 4;
    al.kernel = 0;
    al.delta = -1;
    al.reason = "evict";
    al.iwAverage = inf;

    ServingEventRecord sv;
    sv.caseKey = key;
    sv.cycle = 777;
    sv.event = "arrival";
    sv.tenant = "t\n1";
    sv.request = 42;
    sv.latency = 0;
    sv.level = 2;
    sv.detail = "rejected_queue_full";
    sv.queueDepth = 5;

    SmSliceRecord sl;
    sl.caseKey = key;
    sl.sm = 14;
    sl.kernel = 2;
    sl.start = 100;
    sl.end = 350;

    const std::string path = testing::TempDir() + "gqos_golden.jsonl";
    {
        auto sink = okOrDie(JsonlTraceSink::open(path));
        sink->onEpochKernel(ek);
        sink->onEpochMem(em);
        sink->onAllocEvent(al);
        sink->onServingEvent(sv);
        sink->onSmSlice(sl);
    }
    const std::string c = "\"case\":\"fig\\\"5\\\"\\\\a\\tb\"";
    const std::vector<std::string> want = {
        "{\"type\":\"epoch_kernel\",\"schema_version\":2," + c +
            ",\"epoch\":3,\"start\":30000,\"length\":9000,"
            "\"final_partial\":true,\"kernel\":1,\"is_qos\":true,"
            "\"goal_ipc\":512.5,\"non_qos_goal\":0,\"alpha\":1.25,"
            "\"ipc_epoch\":480,\"ipc_history\":496.75,"
            "\"attainment\":null,\"quota_granted\":4500000,"
            "\"instr_delta\":4320000,\"completed_tbs\":12,"
            "\"preempted_tbs\":2,\"quota_refills\":1,"
            "\"tb_target\":30,\"tb_resident\":28,"
            "\"iw_average\":3.5,\"gated_fraction\":0.25,"
            "\"leftover_per_sm\":[1.5,null,0]}",
        "{\"type\":\"epoch_mem\",\"schema_version\":2," + c +
            ",\"epoch\":3,\"start\":30000,\"length\":9000,"
            "\"final_partial\":false,\"l1_accesses\":100,"
            "\"l1_misses\":40,\"l2_accesses\":40,\"l2_misses\":10,"
            "\"dram_accesses\":9,\"context_lines\":7}",
        "{\"type\":\"alloc_event\",\"schema_version\":2," + c +
            ",\"epoch\":2,\"cycle\":25000,\"sm\":4,\"kernel\":0,"
            "\"delta\":-1,\"reason\":\"evict\",\"iw_average\":null}",
        "{\"type\":\"serving_event\",\"schema_version\":2," + c +
            ",\"cycle\":777,\"event\":\"arrival\","
            "\"tenant\":\"t\\n1\",\"request\":42,\"latency\":0,"
            "\"level\":2,\"queue_depth\":5,"
            "\"detail\":\"rejected_queue_full\"}",
        "{\"type\":\"sm_slice\",\"schema_version\":2," + c +
            ",\"sm\":14,\"kernel\":2,\"start\":100,\"end\":350}",
    };
    std::ifstream in(path);
    std::vector<std::string> got;
    for (std::string line; std::getline(in, line);)
        got.push_back(line);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "line " << i + 1;
    std::remove(path.c_str());
}

TEST(Trace, OpenTraceSinkParsesSpecs)
{
    const std::string base = testing::TempDir() + "gqos_spec_test";
    EXPECT_EQ(traceSpecPath(base + ".jsonl,jsonl"), base + ".jsonl");
    EXPECT_EQ(traceSpecPath(base), base);
    auto bad = openTraceSink(base + ",yaml");
    EXPECT_FALSE(bad.ok());
    // JSONL is the only backend: "csv" is an unknown format...
    auto csv = openTraceSink(base + ".jsonl,csv");
    ASSERT_FALSE(csv.ok());
    EXPECT_EQ(csv.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(csv.error().message().find("'csv'"), std::string::npos)
        << csv.error().message();
    // ...and a .csv extension no longer selects anything: the file
    // is JSONL, with no header row.
    auto by_ext = openTraceSink(base + ".csv");
    ASSERT_TRUE(by_ext.ok());
    by_ext.value()->flush();
    EXPECT_EQ(std::filesystem::file_size(base + ".csv"), 0u);
    std::remove((base + ".csv").c_str());
}

TEST(Metrics, CountersGaugesAndJson)
{
    MetricsRegistry reg;
    MetricsRegistry::Counter &c = reg.counter("test.hits");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    // counter() is create-or-get with stable references.
    EXPECT_EQ(&reg.counter("test.hits"), &c);
    reg.observe("test.wall", 1.0);
    reg.observe("test.wall", 3.0);

    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(looksLikeJsonObject(json));
    EXPECT_NE(json.find("\"test.hits\":5"), std::string::npos);
    EXPECT_NE(json.find("test.wall"), std::string::npos);
}

TEST(RunReport, WritesSortedCasesSweepsAndMetrics)
{
    RunReport report;
    ReportCase second;
    second.key = "spart|b:0.9";
    second.policy = "spart";
    ReportCase first;
    first.key = "rollover|a:0.9";
    first.policy = "rollover";
    KernelResult k;
    k.name = "a";
    k.isQos = true;
    k.goalFrac = 0.9;
    first.result.kernels.push_back(k);
    report.addCase(second);
    report.addCase(first);
    ReportSweep sw;
    sw.label = "fig6";
    sw.stats.total = 2;
    report.addSweep(sw);
    EXPECT_EQ(report.caseCount(), 2u);

    MetricsRegistry metrics;
    metrics.counter("harness.cases_simulated").inc(2);
    std::ostringstream os;
    report.write(os, &metrics);
    std::string json = os.str();
    while (!json.empty() && json.back() == '\n')
        json.pop_back();
    EXPECT_TRUE(looksLikeJsonObject(json));
    // Sorted by key: rollover case precedes spart case.
    EXPECT_LT(json.find("rollover|a:0.9"), json.find("spart|b:0.9"));
    EXPECT_NE(json.find("\"sweeps\""), std::string::npos);
    EXPECT_NE(json.find("fig6"), std::string::npos);
    EXPECT_NE(json.find("harness.cases_simulated"), std::string::npos);
}

/**
 * The whole --stats-json document, byte for byte: one two-kernel
 * case with a cycle breakdown, one sweep, one two-tenant serving
 * entry and a registry holding a counter and a sample.
 */
TEST(RunReport, GoldenDocument)
{
    RunReport report;

    ReportCase c;
    c.key = "rollover|a:0.5000|b:0.0000";
    c.policy = "rollover";
    c.config = "default";
    c.engine = "event";
    c.wallSec = 0.25;
    c.simCyclesPerSec = 1000;
    c.tracePath = "t.jsonl";
    c.result.instrPerWatt = 2.5;
    c.result.dramPerKcycle = 0.75;
    c.result.preemptions = 3;
    KernelResult ka;
    ka.name = "a";
    ka.isQos = true;
    ka.goalFrac = 0.5;
    ka.goalIpc = 100;
    ka.ipc = 90; // below the goal: not reached
    ka.ipcIsolated = 200;
    KernelResult kb;
    kb.name = "b";
    kb.ipc = 80;
    kb.ipcIsolated = 160;
    c.result.kernels = {ka, kb};
    CycleBreakdown ba;
    ba.add(CycleCat::Issued, 7);
    CycleBreakdown bb;
    bb.add(CycleCat::MemStall, 5);
    c.cycleBreakdown = {ba, bb};
    report.addCase(c);

    ReportSweep sw;
    sw.label = "fig6";
    sw.stats.total = 1;
    sw.stats.cacheHits = 0;
    sw.stats.jobs = 1;
    sw.stats.elapsedSec = 0.5;
    sw.stats.faultsInjected = 2;
    sw.faultsRecovered = 2;
    report.addSweep(sw);

    ReportServing sv;
    sv.label = "poisson@x1.00";
    sv.policy = "serving";
    sv.report.endCycle = 5000;
    sv.report.finalLevel = 1;
    sv.report.levelChanges = 2;
    sv.report.drained = true;
    TenantServingStats tg;
    tg.name = "g";
    tg.qosClass = QosClass::Guaranteed;
    tg.arrivals = 10;
    tg.admitted = 4;
    tg.completed = 3;
    tg.sloMet = 2;
    tg.rejectedQueueFull = 1;
    tg.rejectedShed = 2;
    tg.rejectedProjected = 3;
    tg.abandoned = 1;
    tg.maxQueueDepth = 2;
    tg.p50Latency = 40;
    tg.p99Latency = 90;
    tg.sloAttainment = 0.25;
    tg.goodput = 1.5;
    TenantServingStats tb;
    tb.name = "e";
    tb.qosClass = QosClass::BestEffort;
    tb.arrivals = 1;
    tb.admitted = 1;
    tb.droppedAtShutdown = 1;
    tb.stalled = true;
    sv.report.tenants = {tg, tb};
    sv.report.cycleBreakdown = {ba, bb};
    report.addServing(sv);

    MetricsRegistry metrics;
    metrics.counter("harness.cases_simulated").inc();
    metrics.observe("harness.case_wall_sec", 0.5);

    std::ostringstream os;
    report.write(os, &metrics);
    const std::string expected =
        R"({"schema_version":3,"cases":[)"
        R"({"key":"rollover|a:0.5000|b:0.0000","free_preemption":false,)"
        R"("policy":"rollover",)"
        R"("config":"default","engine":"event","from_cache":false,)"
        R"("wall_sec":0.25,"sim_cycles_per_sec":1000,)"
        R"("instr_per_watt":2.5,"dram_per_kcycle":0.75,)"
        R"("preemptions":3,"trace":"t.jsonl","kernels":[)"
        R"({"name":"a","is_qos":true,"goal_frac":0.5,"goal_ipc":100,)"
        R"("ipc":90,"ipc_isolated":200,"reached":false},)"
        R"({"name":"b","is_qos":false,"goal_frac":0,"goal_ipc":0,)"
        R"("ipc":80,"ipc_isolated":160,"reached":true}],)"
        R"("cycle_breakdown":[)"
        R"({"issued":7,"quota_gated":0,"mem_stall":0,)"
        R"("no_ready_warp":0,"drain_preempt":0,"inert_skipped":0},)"
        R"({"issued":0,"quota_gated":0,"mem_stall":5,)"
        R"("no_ready_warp":0,"drain_preempt":0,"inert_skipped":0}]}],)"
        R"("sweeps":[{"label":"fig6","total":1,"cache_hits":0,"jobs":1,)"
        R"("elapsed_sec":0.5,"faults_injected":2,"faults_recovered":2}],)"
        R"("serving":[{"label":"poisson@x1.00","policy":"serving",)"
        R"("end_cycle":5000,"final_level":1,"level_changes":2,)"
        R"("drained":true,"engine_stalled":false,)"
        R"("tenant_stalled":false,"tenants":[)"
        R"({"name":"g","class":"guaranteed","arrivals":10,)"
        R"("admitted":4,"completed":3,"slo_met":2,"rejected":6,)"
        R"("abandoned":1,"dropped_at_shutdown":0,"max_queue_depth":2,)"
        R"("p50_latency":40,"p99_latency":90,"slo_attainment":0.25,)"
        R"("goodput":1.5,"stalled":false},)"
        R"({"name":"e","class":"besteffort","arrivals":1,)"
        R"("admitted":1,"completed":0,"slo_met":0,"rejected":0,)"
        R"("abandoned":0,"dropped_at_shutdown":1,"max_queue_depth":0,)"
        R"("p50_latency":0,"p99_latency":0,"slo_attainment":0,)"
        R"("goodput":0,"stalled":true}],)"
        R"("cycle_breakdown":[)"
        R"({"issued":7,"quota_gated":0,"mem_stall":0,)"
        R"("no_ready_warp":0,"drain_preempt":0,"inert_skipped":0},)"
        R"({"issued":0,"quota_gated":0,"mem_stall":5,)"
        R"("no_ready_warp":0,"drain_preempt":0,"inert_skipped":0}]}],)"
        R"("metrics":{"counters":{"harness.cases_simulated":1},)"
        R"("samples":{"harness.case_wall_sec":{"count":1,"mean":0.5,)"
        R"("min":0.5,"max":0.5,"variance":0}}}})"
        "\n";
    EXPECT_EQ(os.str(), expected);
}

} // anonymous namespace
} // namespace gqos
