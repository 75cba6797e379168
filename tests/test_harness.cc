/**
 * @file
 * Harness tests: result caching, isolated-baseline handling,
 * QoS-reach bookkeeping, recoverable-error propagation and
 * crash-safety of the on-disk cache (corruption, truncation and
 * version-mismatch recovery).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <algorithm>
#include <set>
#include <sstream>
#include <variant>

#include "common/checksum.hh"
#include "harness/result_cache.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "telemetry/trace.hh"

namespace gqos
{
namespace
{

struct HarnessFixture : public ::testing::Test
{
    HarnessFixture()
    {
        dir = "/tmp/gqos_test_cache_" +
              std::to_string(::getpid());
        opts.cycles = 60000;
        opts.warmupCycles = 10000;
        opts.cacheDir = dir;
    }

    ~HarnessFixture() override
    {
        std::filesystem::remove_all(dir);
    }

    Runner
    makeRunner()
    {
        return Runner::make(opts).value();
    }

    /** Read the whole cache file as lines (header included). */
    static std::vector<std::string>
    readLines(const std::string &path)
    {
        std::ifstream in(path);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    static void
    writeLines(const std::string &path,
               const std::vector<std::string> &lines)
    {
        std::ofstream out(path, std::ios::trunc);
        for (const auto &l : lines)
            out << l << "\n";
    }

    std::string dir;
    Runner::Options opts;
};

TEST_F(HarnessFixture, IsolatedIpcIsPositiveAndCached)
{
    Runner runner = makeRunner();
    double ipc1 = runner.isolatedIpc("sgemm").value();
    EXPECT_GT(ipc1, 10.0);
    int sims = runner.simulatedCases();
    double ipc2 = runner.isolatedIpc("sgemm").value();
    EXPECT_DOUBLE_EQ(ipc1, ipc2);
    EXPECT_EQ(runner.simulatedCases(), sims); // served from memory

    // With the result cache off, the in-memory memo alone keeps the
    // baseline from being simulated again, including by the co-run
    // cases that translate their goals against it.
    opts.useCache = false;
    Runner uncached = makeRunner();
    EXPECT_DOUBLE_EQ(uncached.isolatedIpc("sgemm").value(), ipc1);
    EXPECT_EQ(uncached.simulatedCases(), 1);
    EXPECT_DOUBLE_EQ(uncached.isolatedIpc("sgemm").value(), ipc1);
    uncached.run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover").value();
    // The case itself plus lbm's baseline; sgemm's is memoized.
    EXPECT_EQ(uncached.simulatedCases(), 3);
    uncached.run({"sgemm", "lbm"}, {0.7, 0.0}, "rollover").value();
    EXPECT_EQ(uncached.simulatedCases(), 4);
    EXPECT_EQ(uncached.isolatedBaselines().size(), 2u);
}

TEST_F(HarnessFixture, ReportTellsFreePreemptionRunsApart)
{
    // bench_ablations runs its cases on a paid and on a free-
    // preemption Runner: same key, same config, and only the
    // "free_preemption" field tells the two report entries apart.
    opts.useCache = false;
    opts.cycles = 4000;
    opts.warmupCycles = 1000;
    RunReport report;
    opts.report = &report;
    for (bool free_pre : {false, true}) {
        opts.freePreemption = free_pre;
        makeRunner().run({"sgemm"}, {0.0}, "even").value();
    }
    std::ostringstream os;
    report.write(os);
    const std::string json = os.str();
    const std::string key = R"({"key":"even|sgemm:0.0000",)";
    for (const char *flag : {"false", "true"}) {
        EXPECT_NE(json.find(key + "\"free_preemption\":" + flag + ","),
                  std::string::npos)
            << json;
    }
}

/** Case keys of the records @p sink holds, from the @p skip-th. */
std::vector<std::string>
labelsFrom(const RecordingTraceSink &sink, std::size_t skip)
{
    struct Labels : TraceSink
    {
        std::vector<std::string> keys;
        void
        onRecord(const TraceRecord &rec) override
        {
            keys.push_back(std::visit(
                [](const auto &r) { return r.caseKey; }, rec));
        }
    } labels;
    sink.replayTo(labels);
    return {labels.keys.begin() + skip, labels.keys.end()};
}

TEST_F(HarnessFixture, FreePreemptionTraceLabelsAreDistinct)
{
    // bench_ablations traces the same cases on its paid and its
    // free-preemption Runner into one file; the two simulations
    // must stay apart there, as they do in the report.
    opts.useCache = false;
    opts.cycles = 4000;
    opts.warmupCycles = 1000;
    RecordingTraceSink sink;
    opts.traceSink = &sink;
    std::set<std::string> labels[2];
    for (bool free_pre : {false, true}) {
        opts.freePreemption = free_pre;
        const std::size_t before = sink.size();
        makeRunner().run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover")
            .value();
        for (const std::string &k : labelsFrom(sink, before))
            labels[free_pre].insert(k);
    }
    EXPECT_EQ(labels[0].count("rollover|sgemm:0.5000|lbm:0.0000"),
              1u);
    ASSERT_FALSE(labels[1].empty());
    for (const std::string &k : labels[1])
        EXPECT_EQ(labels[0].count(k), 0u) << k;
}

TEST_F(HarnessFixture, FailedBaselineIsNotMemoized)
{
    opts.useCache = false;
    Runner runner = makeRunner();
    auto r = runner.isolatedIpc("no-such-kernel");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    EXPECT_TRUE(runner.isolatedBaselines().empty());
    // Asking again fails again rather than serving a stale value.
    EXPECT_FALSE(runner.isolatedIpc("no-such-kernel").ok());
    EXPECT_TRUE(runner.isolatedBaselines().empty());
}

TEST_F(HarnessFixture, CasePersistsAcrossRunners)
{
    double ipc_first;
    {
        Runner runner = makeRunner();
        CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                                  "rollover").value();
        EXPECT_FALSE(r.fromCache);
        ipc_first = r.kernels[0].ipc;
    }
    {
        Runner runner = makeRunner();
        CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                                  "rollover").value();
        EXPECT_TRUE(r.fromCache);
        EXPECT_NEAR(r.kernels[0].ipc, ipc_first,
                    ipc_first * 1e-6);
        EXPECT_EQ(runner.simulatedCases(), 0);
    }
}

TEST_F(HarnessFixture, DistinctGoalsAreDistinctCases)
{
    Runner runner = makeRunner();
    runner.run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover").value();
    int sims = runner.simulatedCases();
    runner.run({"sgemm", "lbm"}, {0.55, 0.0}, "rollover").value();
    EXPECT_GT(runner.simulatedCases(), sims);
}

TEST_F(HarnessFixture, ReachedComparesAgainstGoal)
{
    Runner runner = makeRunner();
    CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                              "rollover").value();
    const KernelResult &q = r.kernels[0];
    EXPECT_TRUE(q.isQos);
    EXPECT_NEAR(q.goalIpc, 0.5 * q.ipcIsolated, 1e-9);
    EXPECT_EQ(q.reached(), q.ipc >= q.goalIpc);
    EXPECT_FALSE(r.kernels[1].isQos);
    EXPECT_TRUE(r.kernels[1].reached()); // non-QoS always "reached"
}

TEST_F(HarnessFixture, NonQosThroughputAveragesNonQosOnly)
{
    Runner runner = makeRunner();
    CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                              "rollover").value();
    EXPECT_DOUBLE_EQ(r.nonQosThroughput(),
                     r.kernels[1].normalizedThroughput());
    EXPECT_DOUBLE_EQ(r.qosOvershoot(),
                     r.kernels[0].normalizedToGoal());
}

// ---------------------------------------------------------------
// Crash-safe cache: corrupt lines are quarantined with a warning
// and transparently re-simulated with identical numbers.
// ---------------------------------------------------------------

TEST_F(HarnessFixture, BitFlippedLineIsQuarantinedAndResimulated)
{
    double ipc_first;
    {
        Runner runner = makeRunner();
        ipc_first = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                               "rollover").value().kernels[0].ipc;
    }
    std::string path;
    {
        Runner probe = makeRunner();
        path = probe.cachePath();
    }
    auto lines = readLines(path);
    ASSERT_GE(lines.size(), 2u); // header + at least one entry
    // Flip one payload character of the pair entry (key starts
    // with the policy name); the CRC must catch it.
    auto victim = std::find_if(lines.begin(), lines.end(),
                               [](const std::string &l) {
                                   return l.find("rollover|") !=
                                          std::string::npos;
                               });
    ASSERT_NE(victim, lines.end());
    ASSERT_GT(victim->size(), 20u);
    (*victim)[victim->size() / 2] ^= 0x01;
    writeLines(path, lines);

    Runner runner = makeRunner();
    EXPECT_EQ(runner.quarantinedLines(), 1);
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
    CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                              "rollover").value();
    EXPECT_FALSE(r.fromCache); // transparently re-simulated
    EXPECT_DOUBLE_EQ(r.kernels[0].ipc, ipc_first);
}

TEST_F(HarnessFixture, TruncatedLineIsQuarantinedOthersSurvive)
{
    {
        Runner runner = makeRunner();
        runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                   "rollover").value();
        runner.run({"stencil", "lbm"}, {0.5, 0.0},
                   "rollover").value();
    }
    std::string path;
    {
        Runner probe = makeRunner();
        path = probe.cachePath();
    }
    auto lines = readLines(path);
    ASSERT_GE(lines.size(), 3u); // header + two entries
    // Simulate a crash mid-append: the stencil pair line is cut
    // short.
    auto victim = std::find_if(lines.begin(), lines.end(),
                               [](const std::string &l) {
                                   return l.find("rollover|") !=
                                              std::string::npos &&
                                          l.find("stencil") !=
                                              std::string::npos;
                               });
    ASSERT_NE(victim, lines.end());
    *victim = victim->substr(0, victim->size() / 2);
    writeLines(path, lines);

    Runner runner = makeRunner();
    EXPECT_EQ(runner.quarantinedLines(), 1);
    // The intact lines must still be served from cache.
    EXPECT_EQ(runner.simulatedCases(), 0);
    int cached = 0;
    for (auto *kernel : {"sgemm", "stencil"}) {
        CaseResult r = runner.run({kernel, "lbm"}, {0.5, 0.0},
                                  "rollover").value();
        cached += r.fromCache ? 1 : 0;
    }
    EXPECT_EQ(cached, 1); // one survived, one re-simulated
    EXPECT_EQ(runner.simulatedCases(), 1);
}

TEST_F(HarnessFixture, VersionMismatchRetiresWholeFile)
{
    {
        Runner runner = makeRunner();
        runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                   "rollover").value();
    }
    std::string path;
    {
        Runner probe = makeRunner();
        path = probe.cachePath();
    }
    auto lines = readLines(path);
    ASSERT_FALSE(lines.empty());
    lines[0] = "#gqos-cache v1"; // stale format version
    writeLines(path, lines);

    {
        Runner runner = makeRunner();
        // The stale file is set aside wholesale, not partially
        // trusted.
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
        CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                                  "rollover").value();
        EXPECT_FALSE(r.fromCache);
        // Appends are batched; dropping the runner flushes them.
    }
    // And the rebuilt file carries the current header again.
    auto rebuilt = readLines(path);
    ASSERT_FALSE(rebuilt.empty());
    EXPECT_EQ(rebuilt[0], ResultCache::header);
}

TEST_F(HarnessFixture, CacheRoundTripIsBitExact)
{
    CaseResult fresh = [&] {
        Runner runner = makeRunner();
        return runner.run({"mri-q", "spmv"}, {0.7, 0.0},
                          "rollover").value();
    }();
    Runner runner = makeRunner();
    CaseResult cached = runner.run({"mri-q", "spmv"}, {0.7, 0.0},
                                   "rollover").value();
    ASSERT_TRUE(cached.fromCache);
    ASSERT_EQ(cached.kernels.size(), fresh.kernels.size());
    for (std::size_t i = 0; i < fresh.kernels.size(); ++i) {
        EXPECT_DOUBLE_EQ(cached.kernels[i].ipc,
                         fresh.kernels[i].ipc);
        EXPECT_DOUBLE_EQ(cached.kernels[i].ipcIsolated,
                         fresh.kernels[i].ipcIsolated);
    }
    EXPECT_EQ(cached.preemptions, fresh.preemptions);
    EXPECT_DOUBLE_EQ(cached.dramPerKcycle, fresh.dramPerKcycle);
}

/** "crc;payload": a cache line sealed with a valid CRC. */
std::string
sealed(const std::string &payload)
{
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", crc32(payload));
    return std::string(crc) + ";" + payload;
}

TEST(ResultCacheLine, EveryFormattedDoubleParsesBitExact)
{
    // The writer formats doubles "%.17g"; every finite value a case
    // can produce (0 or normal) must read back bit for bit.
    for (double v : {0.0, 1.0, 1234.5678901234567, 1e-5, 2.5e-19,
                     1e21, 2.2250738585072014e-308,
                     1.7976931348623157e308}) {
        char text[32];
        std::snprintf(text, sizeof(text), "%.17g", v);
        const std::string t = text;
        std::string key;
        CachedCase c;
        ASSERT_TRUE(ResultCache::parseLine(
            sealed("even|a:0.0000;" + t + "," + t + ";" + t + ";7;" +
                   t + ";"),
            key, c))
            << t;
        ASSERT_EQ(c.ipc.size(), 2u);
        EXPECT_EQ(c.ipc[1], v);
        EXPECT_EQ(c.instrPerWatt, v);
        EXPECT_EQ(c.preemptions, 7u);
        EXPECT_EQ(c.dramPerKcycle, v);
    }
}

TEST(ResultCacheLine, SealedNonNumericTokenIsCorrupt)
{
    // The CRC proves the line is what was written, not that the
    // writer wrote numbers: each field must parse whole.
    for (const char *payload :
         {"even|a:0.0000;812.5,,101.25;3.5;12;40.25;",
          "even|a:0.0000;abc;3.5;12;40.25;",
          "even|a:0.0000;812.5x;3.5;12;40.25;",
          "even|a:0.0000;812.5;;12;40.25;",
          "even|a:0.0000;812.5;nan;12;40.25;",
          "even|a:0.0000;812.5;3.5;;40.25;",
          "even|a:0.0000;812.5;3.5;-1;40.25;",
          "even|a:0.0000;812.5;3.5;1.5;40.25;",
          "even|a:0.0000;812.5;3.5;12;abc;"}) {
        std::string key;
        CachedCase c;
        EXPECT_FALSE(ResultCache::parseLine(sealed(payload), key, c))
            << payload;
    }
}

TEST_F(HarnessFixture, SealedNonNumericLineIsQuarantined)
{
    {
        Runner runner = makeRunner();
        runner.run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover").value();
    }
    std::string path;
    {
        Runner probe = makeRunner();
        path = probe.cachePath();
    }
    auto lines = readLines(path);
    auto victim = std::find_if(lines.begin(), lines.end(),
                               [](const std::string &l) {
                                   return l.find("rollover|") !=
                                          std::string::npos;
                               });
    ASSERT_NE(victim, lines.end());
    // Reseal the pair line with "abc" for its instructions/Watt.
    std::vector<std::string> fields;
    std::istringstream payload(victim->substr(9));
    for (std::string f; std::getline(payload, f, ';');)
        fields.push_back(f);
    ASSERT_EQ(fields.size(), 5u);
    fields[2] = "abc";
    std::string text;
    for (const std::string &f : fields)
        text += f + ";";
    *victim = sealed(text);
    writeLines(path, lines);

    Runner runner = makeRunner();
    EXPECT_EQ(runner.quarantinedLines(), 1);
    CaseResult r = runner.run({"sgemm", "lbm"}, {0.5, 0.0},
                              "rollover").value();
    EXPECT_FALSE(r.fromCache);
    EXPECT_GT(r.instrPerWatt, 0.0);
}

/** The whole file at @p path as one string. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Inode number of @p path (0 if it cannot be stat()ed). */
ino_t
inodeOf(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

TEST_F(HarnessFixture, TornTailIsQuarantinedNewLinesSurvive)
{
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/torn.csv";
    const CachedCase a{{1.5}, 2.0, 3, 4.0};
    const CachedCase b{{0.25, 0.5}, 1.0, 0, 2.0};
    {
        auto first = ResultCache::open(path);
        first->insert("even|a:0.0000", a);
    }
    auto cache = ResultCache::open(path);
    // Another writer crashed mid-append: the file now ends inside a
    // line, with no '\n'.
    const std::string whole = sealed("even|x:0.0000;1;2;3;4;");
    const std::string torn = whole.substr(0, whole.size() / 2);
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << torn;
    }
    const std::string before = slurp(path);
    const ino_t inode = inodeOf(path);
    cache->insert("even|b:0.0000", b);
    cache->flush();

    // Append-only: the flush extends the same file in place.
    EXPECT_EQ(inodeOf(path), inode);
    EXPECT_EQ(slurp(path).compare(0, before.size(), before), 0);

    auto reloaded = ResultCache::open(path);
    EXPECT_EQ(reloaded->quarantinedLines(), 1);
    EXPECT_EQ(reloaded->size(), 2u);
    CachedCase c;
    ASSERT_TRUE(reloaded->lookup("even|b:0.0000", c));
    EXPECT_EQ(c.ipc, b.ipc);
    EXPECT_TRUE(reloaded->lookup("even|a:0.0000", c));
    EXPECT_EQ(slurp(path + ".quarantine"), torn + "\n");
}

TEST_F(HarnessFixture, TwoInstancesOnOnePathKeepEachOthersLines)
{
    // Two processes (here: two instances) sharing one cache file
    // each append their own batches; neither loses the other's.
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/shared.csv";
    auto one = ResultCache::open(path);
    auto two = ResultCache::open(path);
    one->insert("even|a:0.0000", CachedCase{{1.0}, 1.0, 0, 1.0});
    two->insert("even|b:0.0000", CachedCase{{2.0}, 2.0, 0, 2.0});
    one->flush();
    // Each later flush appends to this same file, never replaces it.
    const ino_t inode = inodeOf(path);
    two->flush();
    EXPECT_EQ(inodeOf(path), inode);
    one->insert("even|c:0.0000", CachedCase{{3.0}, 3.0, 0, 3.0});
    one->flush();
    EXPECT_EQ(inodeOf(path), inode);

    auto reloaded = ResultCache::open(path);
    EXPECT_EQ(reloaded->quarantinedLines(), 0);
    EXPECT_EQ(reloaded->size(), 3u);
    CachedCase c;
    for (const char *key :
         {"even|a:0.0000", "even|b:0.0000", "even|c:0.0000"})
        EXPECT_TRUE(reloaded->lookup(key, c)) << key;
    // Only the first append of an empty file writes the header.
    auto lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], ResultCache::header);
}

// ---------------------------------------------------------------
// Recoverable errors instead of fatal() inside the harness.
// ---------------------------------------------------------------

TEST(HarnessErrors, MismatchedGoalsAreRecoverable)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    auto r = runner.run({"sgemm", "lbm"}, {0.5}, "rollover");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
}

TEST(HarnessErrors, UnknownConfigIsRecoverable)
{
    Runner::Options opts;
    opts.configName = "gigantic";
    auto r = Runner::make(opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
}

TEST(HarnessErrors, UnknownKernelIsRecoverable)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    auto r = runner.run({"no-such-kernel", "lbm"}, {0.5, 0.0},
                        "rollover");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
}

TEST(HarnessErrors, UnknownPolicyIsRecoverable)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 0;
    Runner runner = Runner::make(opts).value();
    auto r = runner.run({"sgemm", "lbm"}, {0.5, 0.0}, "bogus");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
}

TEST(HarnessErrors, ZeroIsolatedIpcIsRecoverable)
{
    // A 10-cycle measured window retires nothing, so the QoS kernel
    // has no goal to translate against: an error, never a fatal().
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 20;
    opts.warmupCycles = 10;
    Runner runner = Runner::make(opts).value();
    EXPECT_EQ(runner.isolatedIpc("sgemm").value(), 0.0);
    auto r = runner.run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("'sgemm'"), std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("cycles 10 to 20"),
              std::string::npos)
        << r.error().message();
}

TEST(HarnessErrors, WarmupMustLeaveMeasuredWindow)
{
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 1000;
    opts.warmupCycles = 1000; // nothing left to measure
    auto r = Runner::make(opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("warmup"),
              std::string::npos);
}

TEST(HarnessErrors, WarmupAboveHalfOfCyclesIsRejected)
{
    // The measured window is [warmup, cycles); a warm-up past
    // cycles / 2 is an error that names both values.
    Runner::Options opts;
    opts.useCache = false;
    opts.cycles = 20000;
    opts.warmupCycles = 15000;
    auto r = Runner::make(opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message().find("15000"), std::string::npos)
        << r.error().message();
    EXPECT_NE(r.error().message().find("20000"), std::string::npos)
        << r.error().message();

    opts.warmupCycles = 10000; // exactly half is allowed
    EXPECT_TRUE(Runner::make(opts).ok());
}

TEST(HarnessSweeps, PaperGoalLists)
{
    auto g = paperGoalSweep();
    ASSERT_EQ(g.size(), 10u);
    EXPECT_DOUBLE_EQ(g.front(), 0.50);
    EXPECT_DOUBLE_EQ(g.back(), 0.95);
    auto d = paperDualGoalSweep();
    ASSERT_EQ(d.size(), 10u);
    EXPECT_DOUBLE_EQ(d.front(), 0.25);
    EXPECT_DOUBLE_EQ(d.back(), 0.70);
}

// ---------------------------------------------------------------
// Run watchdog: the StallDetector fires only after a full window
// with live work but no retired instructions.
// ---------------------------------------------------------------

TEST(StallDetector, FiresAfterWindowWithoutProgress)
{
    StallDetector det(1000);
    EXPECT_FALSE(det.observe(0, 0, true));     // primes
    EXPECT_FALSE(det.observe(500, 0, true));   // within window
    EXPECT_FALSE(det.observe(999, 0, true));
    EXPECT_TRUE(det.observe(1000, 0, true));   // full window, stuck
}

TEST(StallDetector, ProgressResetsTheWindow)
{
    StallDetector det(1000);
    EXPECT_FALSE(det.observe(0, 0, true));
    EXPECT_FALSE(det.observe(900, 10, true));  // retired some
    EXPECT_FALSE(det.observe(1800, 10, true)); // window restarted
    EXPECT_TRUE(det.observe(1900, 10, true));
}

TEST(StallDetector, IdleGpuIsNotAStall)
{
    StallDetector det(1000);
    EXPECT_FALSE(det.observe(0, 0, true));
    // No live thread blocks: drained, not stalled.
    EXPECT_FALSE(det.observe(5000, 0, false));
    EXPECT_FALSE(det.observe(10000, 0, false));
}

} // anonymous namespace
} // namespace gqos
