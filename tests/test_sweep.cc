/**
 * @file
 * Sweep-executor tests: parallel/sequential result equivalence,
 * clean cancellation on a failing case, thread-shared cache
 * integrity, and fault-injection determinism across job counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hh"
#include "harness/result_cache.hh"
#include "harness/run_report.hh"
#include "harness/sweep.hh"
#include "telemetry/trace.hh"

namespace gqos
{
namespace
{

struct SweepFixture : public ::testing::Test
{
    SweepFixture()
    {
        base = "/tmp/gqos_test_sweep_" +
               std::to_string(::getpid());
    }

    ~SweepFixture() override
    {
        std::filesystem::remove_all(base);
        FaultInjector::instance().clear();
    }

    Runner::Options
    makeOptions(const std::string &tag, bool useCache = true) const
    {
        Runner::Options opts;
        opts.cycles = 40000;
        opts.warmupCycles = 8000;
        opts.cacheDir = base + "/" + tag;
        opts.useCache = useCache;
        return opts;
    }

    /** The small mixed-policy case list the tests sweep. */
    static std::vector<SweepCase>
    standardCases()
    {
        return {
            {{"sgemm", "lbm"}, {0.5, 0.0}, "rollover", ""},
            {{"sgemm", "lbm"}, {0.7, 0.0}, "rollover", ""},
            {{"lbm", "sgemm"}, {0.6, 0.0}, "rollover", ""},
            {{"sgemm", "lbm"}, {0.0, 0.0}, "even", ""},
            {{"sgemm", "lbm"}, {0.5, 0.0}, "spart", ""},
            {{"lbm", "sgemm"}, {0.0, 0.0}, "even", ""},
        };
    }

    /** Run standardCases() in @p tag's fresh cache dir. */
    std::vector<CaseResult>
    runStandard(const std::string &tag, int jobs,
                SweepStats *stats = nullptr)
    {
        Runner runner = Runner::make(makeOptions(tag)).value();
        SweepOptions so;
        so.jobs = jobs;
        so.progress = false;
        return runSweep(runner, standardCases(), so, stats).value();
    }

    static void
    expectBitIdentical(const std::vector<CaseResult> &a,
                       const std::vector<CaseResult> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].kernels.size(), b[i].kernels.size())
                << "case " << i;
            for (std::size_t k = 0; k < a[i].kernels.size(); ++k) {
                EXPECT_EQ(a[i].kernels[k].name, b[i].kernels[k].name);
                EXPECT_DOUBLE_EQ(a[i].kernels[k].ipc,
                                 b[i].kernels[k].ipc)
                    << "case " << i << " kernel " << k;
                EXPECT_DOUBLE_EQ(a[i].kernels[k].ipcIsolated,
                                 b[i].kernels[k].ipcIsolated);
                EXPECT_DOUBLE_EQ(a[i].kernels[k].goalIpc,
                                 b[i].kernels[k].goalIpc);
            }
            EXPECT_EQ(a[i].preemptions, b[i].preemptions);
            EXPECT_DOUBLE_EQ(a[i].instrPerWatt, b[i].instrPerWatt);
            EXPECT_DOUBLE_EQ(a[i].dramPerKcycle,
                             b[i].dramPerKcycle);
        }
    }

    std::string base;
};

// ---------------------------------------------------------------
// (i) Parallel and sequential sweeps return identical ordered
// results — cold caches, and again against a warm cache.
// ---------------------------------------------------------------

TEST_F(SweepFixture, ParallelMatchesSequential)
{
    SweepStats seq_stats, par_stats;
    auto seq = runStandard("seq", 1, &seq_stats);
    auto par = runStandard("par", 4, &par_stats);
    expectBitIdentical(seq, par);

    EXPECT_EQ(seq_stats.total, standardCases().size());
    EXPECT_EQ(par_stats.total, standardCases().size());
    EXPECT_EQ(seq_stats.jobs, 1);
    EXPECT_EQ(par_stats.jobs, 4);

    // Same dir again, warm: identical values, all from cache.
    SweepStats warm_stats;
    auto warm = runStandard("seq", 4, &warm_stats);
    expectBitIdentical(seq, warm);
    EXPECT_EQ(warm_stats.cacheHits, standardCases().size());
    for (const CaseResult &r : warm)
        EXPECT_TRUE(r.fromCache);
}

// ---------------------------------------------------------------
// (ii) A failing case cancels the sweep cleanly (no deadlock, no
// fatal) and the error names the failing case.
// ---------------------------------------------------------------

TEST_F(SweepFixture, FailingCaseCancelsAndIsReported)
{
    Runner::Options opts = makeOptions("err", /*useCache=*/false);
    Runner runner = Runner::make(opts).value();
    std::vector<SweepCase> cases = standardCases();
    cases[2].kernels[0] = "no-such-kernel";

    SweepOptions so;
    so.jobs = 4;
    so.progress = false;
    auto r = runSweep(runner, cases, so);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    // The message carries the case's submission identity.
    EXPECT_NE(r.error().message().find("sweep case 3/6"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("no-such-kernel"),
              std::string::npos)
        << r.error().message();
}

TEST_F(SweepFixture, FailingBaselineNamesTheKernel)
{
    // The unknown kernel already fails in the isolated-baseline
    // warm-up phase, which runs whether or not the cache is on; the
    // error names the first case that references it.
    Runner runner = Runner::make(makeOptions("errbase")).value();
    std::vector<SweepCase> cases = standardCases();
    cases[0].kernels[1] = "no-such-kernel";

    SweepOptions so;
    so.jobs = 2;
    so.progress = false;
    auto r = runSweep(runner, cases, so);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    EXPECT_NE(r.error().message().find("isolated baseline"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("no-such-kernel"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("sweep case 1/6"),
              std::string::npos)
        << r.error().message();
}

// ---------------------------------------------------------------
// (iii) Concurrent workers sharing one cache leave a file that
// round-trips cleanly: every line parses, nothing quarantines, and
// a fresh runner serves every case from it.
// ---------------------------------------------------------------

TEST_F(SweepFixture, SharedCacheFileRoundTrips)
{
    runStandard("shared", 4);

    Runner::Options opts = makeOptions("shared");
    Runner probe = Runner::make(opts).value();
    EXPECT_EQ(probe.quarantinedLines(), 0);

    // Every non-header line must parse and re-validate its CRC.
    std::ifstream in(probe.cachePath());
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, ResultCache::header);
    int parsed = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key;
        CachedCase c;
        EXPECT_TRUE(ResultCache::parseLine(line, key, c)) << line;
        parsed++;
    }
    // 6 cases + 2 isolated baselines, minus the overlap: the "even"
    // pair cases and baselines are distinct keys; exact count aside,
    // there must be at least one line per distinct case.
    EXPECT_GE(parsed, 6);

    // And the warm runner never needs to simulate.
    SweepOptions so;
    so.jobs = 1;
    so.progress = false;
    auto warm = runSweep(probe, standardCases(), so).value();
    for (const CaseResult &r : warm)
        EXPECT_TRUE(r.fromCache);
    EXPECT_EQ(probe.simulatedCases(), 0);
}

// ---------------------------------------------------------------
// (iv) Fault-injection sweeps are deterministic across job counts:
// the per-case decision streams depend only on (seed, case index).
// ---------------------------------------------------------------

TEST_F(SweepFixture, FaultSweepIsIdenticalAcrossJobCounts)
{
    auto faultRun = [&](const std::string &tag, int jobs,
                        std::uint64_t *injected) {
        FaultInjector &fi = FaultInjector::instance();
        fi.clear();
        fi.reseed(42);
        fi.setRate("cache_write", 0.5);
        auto results = runStandard(tag, jobs);
        *injected = fi.injected("cache_write");
        fi.clear();
        return results;
    };

    std::uint64_t seq_injected = 0, par_injected = 0;
    auto seq = faultRun("fault-seq", 1, &seq_injected);
    auto par = faultRun("fault-par", 4, &par_injected);

    // Same results and the *same fault decisions*: the number of
    // dropped appends cannot depend on thread placement.
    expectBitIdentical(seq, par);
    EXPECT_EQ(seq_injected, par_injected);
    EXPECT_GT(seq_injected, 0u); // the stress actually fired

    // The surviving cache files hold the same set of keys.
    auto cacheKeys = [&](const std::string &tag) {
        Runner::Options opts = makeOptions(tag);
        Runner probe = Runner::make(opts).value();
        std::set<std::string> keys;
        std::ifstream in(probe.cachePath());
        std::string line;
        while (std::getline(in, line)) {
            std::string key;
            CachedCase c;
            if (ResultCache::parseLine(line, key, c))
                keys.insert(key);
        }
        return keys;
    };
    EXPECT_EQ(cacheKeys("fault-seq"), cacheKeys("fault-par"));
}

// ---------------------------------------------------------------
// (v) Each isolated baseline is simulated exactly once per sweep,
// cache on or off, at any job count: the pre-pass results seed the
// baseline memo of every worker Runner.
// ---------------------------------------------------------------

TEST_F(SweepFixture, BaselinesSimulateOncePerSweep)
{
    const std::vector<SweepCase> cases = standardCases();
    std::set<std::string> kernels;
    for (const SweepCase &c : cases)
        kernels.insert(c.kernels.begin(), c.kernels.end());

    std::vector<std::vector<CaseResult>> runs;
    for (bool cache : {true, false}) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "cache " << cache << " jobs " << jobs);
            Runner::Options opts = makeOptions(
                "once-" + std::to_string(cache) + "-" +
                    std::to_string(jobs),
                cache);
            Runner runner = Runner::make(opts).value();
            SweepOptions so;
            so.jobs = jobs;
            so.progress = false;
            runs.push_back(runSweep(runner, cases, so).value());
            // Every worker simulates on the caller's Runner, so its
            // count covers the whole sweep.
            EXPECT_EQ(runner.simulatedCases(),
                      static_cast<int>(kernels.size() + cases.size()));
            // The caller's Runner holds every baseline afterwards.
            EXPECT_EQ(runner.isolatedBaselines().size(),
                      kernels.size());
        }
    }
    for (std::size_t i = 1; i < runs.size(); ++i)
        expectBitIdentical(runs[0], runs[i]);
}

TEST_F(SweepFixture, ZeroIsolatedIpcFailsTheSweepCleanly)
{
    // A 10-cycle measured window retires nothing: the QoS goal has
    // no baseline to translate against. The error comes back from
    // the worker threads as a Result, never a fatal().
    Runner::Options opts = makeOptions("zero", /*useCache=*/false);
    opts.cycles = 20;
    opts.warmupCycles = 10;
    Runner runner = Runner::make(opts).value();
    SweepOptions so;
    so.jobs = 4;
    so.progress = false;
    auto r = runSweep(runner, standardCases(), so);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("sweep case 1/6"),
              std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("'sgemm'"), std::string::npos)
        << r.error().message();
}

// ---------------------------------------------------------------
// (vi) The "cache hit bypasses the requested trace" warning fires
// only when a hit really skipped a simulation the user asked to
// trace, and once per cache rather than once per worker.
// ---------------------------------------------------------------

TEST_F(SweepFixture, TraceBypassWarningOnlyForWarmHits)
{
    const std::string needle = "bypasses the requested trace";
    auto countWarnings = [&](const std::string &out) {
        int count = 0;
        for (auto pos = out.find(needle); pos != std::string::npos;
             pos = out.find(needle, pos + 1))
            count++;
        return count;
    };
    auto tracedSweep = [&](const std::string &tag, int jobs) {
        RecordingTraceSink sink;
        Runner::Options opts = makeOptions(tag);
        opts.traceSink = &sink;
        opts.tracePath = base + "/" + tag + ".jsonl";
        Runner runner = Runner::make(opts).value();
        SweepOptions so;
        so.jobs = jobs;
        so.progress = false;
        // A repeated case hits an entry this sweep inserted (and
        // traced): no warning for that either.
        std::vector<SweepCase> cases = standardCases();
        cases.push_back(cases[0]);
        testing::internal::CaptureStderr();
        auto r = runSweep(runner, cases, so);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_TRUE(r.ok());
        return countWarnings(err);
    };

    for (int jobs : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        const std::string tag = "bypass-" + std::to_string(jobs);
        EXPECT_EQ(tracedSweep(tag, jobs), 0) << "cold cache";
        EXPECT_EQ(tracedSweep(tag, jobs), 1) << "warm cache";
    }
}

TEST_F(SweepFixture, WarmTracedSweepReportsNoStaleTrace)
{
    // A warm run truncates the trace file it was given, so a cached
    // case's records are in no trace of this run: the report says
    // "", the warning points nowhere, and no sidecar remembers the
    // earlier path.
    const std::string tracePath = base + "/warm.jsonl";
    auto tracedSweep = [&](std::string *err) {
        RecordingTraceSink sink;
        RunReport report;
        Runner::Options opts = makeOptions("warm");
        opts.traceSink = &sink;
        opts.tracePath = tracePath;
        opts.report = &report;
        Runner runner = Runner::make(opts).value();
        SweepOptions so;
        so.jobs = 1;
        so.progress = false;
        testing::internal::CaptureStderr();
        auto r = runSweep(runner, standardCases(), so);
        *err = testing::internal::GetCapturedStderr();
        EXPECT_TRUE(r.ok());
        std::ostringstream os;
        report.write(os);
        return os.str();
    };
    // The trace field of every case, by from_cache.
    auto traces = [](const std::string &json, bool cached) {
        const std::regex field(
            std::string("\"from_cache\":") +
            (cached ? "true" : "false") +
            R"re(,[^\[]*"trace":"([^"]*)")re");
        std::vector<std::string> out;
        for (std::sregex_iterator it(json.begin(), json.end(), field),
             end;
             it != end; ++it)
            out.push_back((*it)[1].str());
        return out;
    };

    std::string err;
    const std::string cold = tracedSweep(&err);
    EXPECT_TRUE(traces(cold, true).empty());
    for (const std::string &t : traces(cold, false))
        EXPECT_EQ(t, tracePath);
    const std::string warm = tracedSweep(&err);

    EXPECT_TRUE(traces(warm, false).empty());
    const std::vector<std::string> cached = traces(warm, true);
    EXPECT_GE(cached.size(), standardCases().size());
    for (const std::string &t : cached)
        EXPECT_EQ(t, "");
    EXPECT_NE(err.find("bypasses the requested trace"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("earlier trace"), std::string::npos) << err;
    for (const auto &entry :
         std::filesystem::directory_iterator(base + "/warm"))
        EXPECT_NE(entry.path().extension(), ".meta") << entry.path();
}

TEST_F(SweepFixture, TraceSinkFlushesOncePerSweep)
{
    // A flush can be costly (a timeline rewrites its whole
    // document), so the sweep flushes once at its end, not once per
    // simulated case.
    struct CountingSink : TraceSink
    {
        std::atomic<int> flushes{0};
        void flush() override { flushes++; }
    };
    std::vector<SweepCase> cases = standardCases();
    cases.resize(3); // the three rollover cases
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        CountingSink sink;
        Runner::Options opts = makeOptions("flush", /*useCache=*/false);
        opts.traceSink = &sink;
        Runner runner = Runner::make(opts).value();
        SweepOptions so;
        so.jobs = jobs;
        so.progress = false;
        ASSERT_TRUE(runSweep(runner, cases, so).ok());
        EXPECT_EQ(sink.flushes.load(), 1);
    }
}

// ---------------------------------------------------------------
// Smaller pieces of the sweep API.
// ---------------------------------------------------------------

TEST(ForEachOrdered, RunsEveryIndexOnce)
{
    for (int jobs : {1, 4}) {
        std::vector<std::atomic<int>> runs(50);
        ASSERT_TRUE(forEachOrdered(runs.size(), jobs,
                                   [&](std::size_t i) -> Result<void> {
                                       runs[i]++;
                                       return {};
                                   })
                        .ok());
        for (const std::atomic<int> &r : runs)
            EXPECT_EQ(r.load(), 1) << "jobs " << jobs;
    }
}

TEST(ForEachOrdered, StopsAfterAFailureAndReportsTheLowest)
{
    // Index 8 fails late and index 9 fails at once, so with several
    // workers 9's error is recorded first and 8's must replace it.
    constexpr std::size_t count = 200;
    constexpr std::size_t first = 8;
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        std::mutex mutex;
        std::set<std::size_t> started;
        Result<void> r = forEachOrdered(
            count, jobs, [&](std::size_t i) -> Result<void> {
                {
                    std::lock_guard<std::mutex> guard(mutex);
                    started.insert(i);
                }
                if (i == first) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                }
                if (i == first || i == first + 1) {
                    return Error::format(ErrorCode::Internal,
                                         "index %zu", i);
                }
                if (i > first) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                }
                return {};
            });
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().message(), "index 8");
        for (std::size_t i = 0; i <= first; ++i)
            EXPECT_EQ(started.count(i), 1u) << "index " << i;
        if (jobs == 1) {
            EXPECT_EQ(started.size(), first + 1);
        } else {
            // Only the indices already in flight when the failure
            // landed may start past it; all 200 would run otherwise.
            EXPECT_LT(*started.rbegin(), first + 32);
        }
    }
}

TEST(SweepApi, DescribeNamesPolicyKernelsGoalsAndConfig)
{
    SweepCase c{{"sgemm", "lbm"}, {0.5, 0.0}, "rollover", ""};
    EXPECT_EQ(c.describe(), "rollover|sgemm:0.5000|lbm:0.0000");
}

TEST(SweepApi, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultSweepJobs(), 1);
}

TEST(SweepApi, EmptySweepSucceeds)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    SweepOptions so;
    so.progress = false;
    SweepStats stats;
    auto r = runSweep(runner, {}, so, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().empty());
    EXPECT_EQ(stats.total, 0u);
}

TEST(SweepApi, UnknownConfigInCaseIsRecoverable)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    SweepOptions so;
    so.progress = false;
    // A sweep runs on its Runner's one configuration; a case naming
    // any other one, known or not, is an error, never a silent run on
    // the wrong machine.
    for (const char *config : {"gigantic", "large"}) {
        std::vector<SweepCase> cases = {
            {{"sgemm"}, {0.0}, "even", "default"},
            {{"sgemm"}, {0.0}, "even", config},
        };
        auto r = runSweep(runner, cases, so);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(r.error().message().find(config), std::string::npos)
            << r.error().message();
        EXPECT_NE(r.error().message().find("case 2/2"),
                  std::string::npos)
            << r.error().message();
    }
}

} // anonymous namespace
} // namespace gqos
