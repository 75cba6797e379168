/**
 * @file
 * Tests of the benchmark's own measurement code.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include "harness/runner.hh"
#include "measure.hh"
#include "replay.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

TEST(TailPercentile, HighestPercentileWithTenBeyond)
{
    // 100 samples: p90 is the highest rank with >= 10 samples above.
    TailPercentile t = tailPercentile(iota(100));
    EXPECT_EQ(t.pct, 90);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_EQ(t.beyond, 10u);

    // Enough samples for the requested p95.
    t = tailPercentile(iota(400));
    EXPECT_EQ(t.pct, 95);
    EXPECT_EQ(t.value, 380.0);
    EXPECT_EQ(t.beyond, 20u);
}

TEST(TailPercentile, FallsBackToMedianWhenTooFew)
{
    TailPercentile t = tailPercentile(iota(15));
    EXPECT_EQ(t.pct, 50);
    EXPECT_EQ(t.value, 8.0);
    EXPECT_EQ(t.beyond, 7u);
    EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter)
{
    std::vector<double> v = iota(50);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(median(v), 25.5);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(percentile(v, 80), 40.0);
    // Exact ranks: 56% of 25 samples is rank 14.
    EXPECT_EQ(percentile(iota(25), 56), 14.0);
}

TEST(Ratio, CarriesItsBase)
{
    Ratio r{3.0, 4.0};
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_NE(r.describe().find("(3/4)"), std::string::npos);
    Ratio empty;
    EXPECT_EQ(empty.value(), 0.0);
    EXPECT_NE(empty.describe().find("(0/0)"), std::string::npos);
}

TEST(HostProbe, EverySliceIsTimed)
{
    HostProbe probe;
    std::vector<double> slices{1.0};
    probe.sample(3, slices);
    ASSERT_EQ(slices.size(), 4u);
    for (std::size_t i = 1; i < slices.size(); ++i) {
        EXPECT_GT(slices[i], 0.0);
        EXPECT_LT(slices[i], 1.0);
    }
}

TEST(SpanRecorder, SelfTimeExcludesChildren)
{
    SpanRecorder rec(true);
    {
        auto outer = rec.open("bench", "outer");
        {
            auto inner = rec.open("harness", "inner", 7);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].caseId, 7u);
    std::map<std::string, double> self;
    for (const auto &[layer, secs] : rec.selfSecondsByLayer())
        self[layer] = secs;
    EXPECT_GE(self["harness"], 0.019);
    EXPECT_LT(self["bench"], self["harness"]);

    SpanRecorder off(false);
    {
        auto s = off.open("bench", "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Simulate one traced case into a JSONL file, optionally through
 *  the timing decorator; returns the records the decorator saw. */
std::uint64_t
traceOneCase(const fs::path &path, bool decorated)
{
    auto sink = gqos::JsonlTraceSink::open(path.string());
    EXPECT_TRUE(sink.ok());
    TimingTraceSink timing(sink.value().get());
    gqos::Runner::Options o;
    o.cycles = caseCycles;
    o.warmupCycles = caseWarmup;
    o.useCache = false;
    o.traceSink = decorated ? static_cast<gqos::TraceSink *>(&timing)
                            : sink.value().get();
    auto runner = gqos::Runner::make(o);
    EXPECT_TRUE(runner.ok());
    EXPECT_TRUE(runner.value()
                    .run({"sgemm", "lbm", "spmv"}, {0.6, 0.3, 0.0},
                         "rollover")
                    .ok());
    o.traceSink->flush();
    return timing.records();
}

TEST(TimingTraceSink, JsonlBytesMatchTheUndecoratedSink)
{
    const fs::path dir =
        fs::current_path() /
        ("perfbench-test-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    EXPECT_EQ(traceOneCase(dir / "plain.jsonl", false), 0u);
    const std::uint64_t records =
        traceOneCase(dir / "timed.jsonl", true);
    const std::string plain = slurp(dir / "plain.jsonl");
    const std::string timed = slurp(dir / "timed.jsonl");
    fs::remove_all(dir);
    EXPECT_GT(records, 0u);
    EXPECT_FALSE(plain.empty());
    EXPECT_EQ(plain, timed);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(timed.begin(), timed.end(), '\n')),
              records);
}

TEST(Replay, EqualsRunnerRunForEveryPolicy)
{
    gqos::Runner::Options o;
    o.cycles = caseCycles;
    o.warmupCycles = caseWarmup;
    o.useCache = false;
    auto runner = gqos::Runner::make(o);
    ASSERT_TRUE(runner.ok());
    for (const char *policy :
         {"spart", "naive", "elastic", "rollover", "rollover-time"}) {
        gqos::SweepCase c{{"mri-q", "stencil"}, {0.8, 0.0}, policy, ""};
        auto res = runner.value().run(c.kernels, c.goals, c.policy);
        ASSERT_TRUE(res.ok()) << policy;
        gqos::CachedCase want;
        std::vector<double> iso;
        for (const auto &k : res.value().kernels) {
            want.ipc.push_back(k.ipc);
            iso.push_back(k.ipcIsolated);
        }
        want.instrPerWatt = res.value().instrPerWatt;
        want.preemptions = res.value().preemptions;
        want.dramPerKcycle = res.value().dramPerKcycle;
        for (ReplayMode mode : {ReplayMode::Engine, ReplayMode::PerCycle}) {
            ReplayOptions ro;
            ro.mode = mode;
            auto rep = replayCase(runner.value().config(), caseCycles,
                                  caseWarmup, c, iso, ro);
            ASSERT_TRUE(rep.ok()) << policy;
            EXPECT_TRUE(sameBits(rep.value().result, want)) << policy;
            EXPECT_EQ(rep.value().cycles, caseCycles);
        }
    }
}

TEST(Sampling, SeededAndStratified)
{
    auto a = sampleColdCases(1);
    auto b = sampleColdCases(1);
    auto c = sampleColdCases(2);
    ASSERT_EQ(a.size(), 150u);
    std::map<std::string, int> perPolicy;
    bool same = true, differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        perPolicy[a[i].policy]++;
        same = same && a[i].describe() == b[i].describe();
        differs = differs || a[i].describe() != c[i].describe();
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(differs);
    ASSERT_EQ(perPolicy.size(), 5u);
    for (const auto &[policy, n] : perPolicy)
        EXPECT_EQ(n, 30) << policy;

    for (std::uint64_t seed : {3, 4, 5}) {
        auto r = sampleRetraceCases(seed);
        ASSERT_EQ(r.size(), 30u);
        perPolicy.clear();
        std::map<std::string, int> asQos, inPairs, inTrios;
        for (const auto &x : r) {
            perPolicy[x.policy]++;
            for (const std::string &k : x.kernels)
                (x.kernels.size() == 2 ? inPairs : inTrios)[k]++;
            if (x.kernels.size() == 2)
                asQos[x.kernels[0]]++;
        }
        for (const auto &[policy, n] : perPolicy)
            EXPECT_EQ(n, 6) << policy;
        ASSERT_EQ(inTrios.size(), 10u);
        for (const auto &[kernel, n] : inTrios) {
            EXPECT_EQ(n, 3) << kernel;
            EXPECT_EQ(inPairs[kernel], 4) << kernel;
            EXPECT_EQ(asQos[kernel], 2) << kernel;
        }
    }

    auto p = servingLoadPoints(5);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p[0].arrivals.seed, servingLoadPoints(5)[0].arrivals.seed);
    EXPECT_NE(p[0].arrivals.seed, servingLoadPoints(6)[0].arrivals.seed);
}

} // namespace
} // namespace perfbench
