/**
 * @file
 * Unit tests for the common utility layer: RNG, bit operations,
 * statistics and CLI parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <set>
#include <string>
#include <thread>

#include "common/bitops.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace gqos
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, MixSeedDecorrelates)
{
    EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 2, 4));
    EXPECT_NE(mixSeed(1, 2, 3), mixSeed(1, 3, 2));
    EXPECT_NE(mixSeed(0, 0, 0), mixSeed(0, 0, 1));
}

TEST(Bitops, FirstSetBit)
{
    EXPECT_EQ(firstSetBit(0x1ull), 0);
    EXPECT_EQ(firstSetBit(0x8ull), 3);
    EXPECT_EQ(firstSetBit(1ull << 63), 63);
    EXPECT_EQ(firstSetBit(0ull), 64);
}

TEST(Bitops, SetClearTest)
{
    std::uint64_t m = 0;
    m = setBit(m, 5);
    EXPECT_TRUE(testBit(m, 5));
    EXPECT_FALSE(testBit(m, 4));
    m = clearBit(m, 5);
    EXPECT_EQ(m, 0ull);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(divCeil(1, 5), 1);
}

TEST(SampleStat, Basics)
{
    SampleStat s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(Histogram, Bucketing)
{
    Histogram h({0.01, 0.05, 0.10, 0.20});
    h.add(0.005); // bucket 0
    h.add(0.03);  // bucket 1
    h.add(0.07);  // bucket 2
    h.add(0.15);  // bucket 3
    h.add(0.5);   // overflow
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Histogram, BoundaryGoesToLowerBucket)
{
    Histogram h({1.0, 2.0});
    h.add(1.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    h.add(2.0);
    EXPECT_EQ(h.bucketCount(1), 1u);
}

TEST(RunningAverage, Lifetime)
{
    RunningAverage a;
    a.add(10);
    a.add(20);
    EXPECT_DOUBLE_EQ(a.lifetime(), 15.0);
    EXPECT_DOUBLE_EQ(a.last(), 20.0);
}

TEST(Cli, KeyValueForms)
{
    const char *argv[] = {"prog", "--alpha=3", "--beta", "4",
                          "--flag", "--no-gamma", "pos1"};
    CliArgs args(7, argv);
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_EQ(args.getInt("beta", 0), 4);
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_FALSE(args.getBool("gamma", true));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Defaults)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    EXPECT_EQ(args.getString("missing", "x"), "x");
    EXPECT_FALSE(args.has("missing"));
}

TEST(CliDeath, RejectsTrailingGarbageInNumbers)
{
    const char *argv[] = {"prog", "--cycles=10k", "--rate=1.5x",
                          "--empty="};
    CliArgs args(4, argv);
    EXPECT_EXIT(args.getInt("cycles", 0),
                ::testing::ExitedWithCode(1), "10k");
    EXPECT_EXIT(args.getDouble("rate", 0.0),
                ::testing::ExitedWithCode(1), "1.5x");
    EXPECT_EXIT(args.getInt("empty", 0),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(args.getDouble("empty", 0.0),
                ::testing::ExitedWithCode(1), "");
}

TEST(CliDeath, RejectsNegativeIntegers)
{
    // Every caller casts getInt() to an unsigned type, so a negative
    // value would wrap to about 2^64 instead of failing.
    const char *argv[] = {"prog", "--neg=-7", "--cycles", "-5",
                          "--zero=0"};
    CliArgs args(5, argv);
    EXPECT_EXIT(args.getInt("neg", 0), ::testing::ExitedWithCode(1),
                "--neg .*'-7'");
    EXPECT_EXIT(args.getInt("cycles", 0),
                ::testing::ExitedWithCode(1), "--cycles .*'-5'");
    EXPECT_EQ(args.getInt("zero", 1), 0);
}

/** Death-test stderr matcher: says "fatal:", never @p marker. */
class FatalWithout
    : public ::testing::MatcherInterface<const std::string &>
{
  public:
    explicit FatalWithout(std::string marker)
        : marker_(std::move(marker))
    {}

    bool
    MatchAndExplain(const std::string &err,
                    ::testing::MatchResultListener *) const override
    {
        return err.find("fatal:") != std::string::npos &&
               err.find(marker_) == std::string::npos;
    }

    void
    DescribeTo(std::ostream *os) const override
    {
        *os << "contains \"fatal:\" but not \"" << marker_ << "\"";
    }

  private:
    std::string marker_;
};

void
printAtexitMarker()
{
    std::fputs("atexit-marker\n", stderr);
}

TEST(LoggingDeath, FatalOffTheMainThreadSkipsExitHandlers)
{
    EXPECT_EXIT(
        {
            std::atexit(printAtexitMarker);
            std::thread([] { gqos_fatal("worker gave up"); }).join();
        },
        ::testing::ExitedWithCode(1),
        ::testing::MakeMatcher(new FatalWithout("atexit-marker")));
    // On the main thread the same fatal() runs exit handlers.
    EXPECT_EXIT(
        {
            std::atexit(printAtexitMarker);
            gqos_fatal("main gave up");
        },
        ::testing::ExitedWithCode(1), "fatal:.*main gave up.*\n"
                                      "atexit-marker");
    // Buffered stdout still reaches its file on the worker path.
    const std::string out = ::testing::TempDir() + "gqos_fatal_stdout";
    EXPECT_EXIT(
        {
            if (!std::freopen(out.c_str(), "w", stdout))
                std::abort();
            std::fputs("stdout-marker\n", stdout);
            std::thread([] { gqos_fatal("worker gave up"); }).join();
        },
        ::testing::ExitedWithCode(1), "fatal:.*worker gave up");
    std::ifstream in(out);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "stdout-marker");
    std::remove(out.c_str());
}

TEST(Cli, AcceptsFullTokenNumbers)
{
    const char *argv[] = {"prog", "--cycles=200000",
                          "--rate=2.5e-1"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.getInt("cycles", 0), 200000);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 0.25);
}

TEST(Cli, PositiveListParsesEveryToken)
{
    const char *argv[] = {"prog", "--loads", "0.5,1.0,,4"};
    CliArgs args(3, argv);
    auto v = args.getPositiveList("loads", "9");
    ASSERT_TRUE(v.ok()) << v.error().message();
    ASSERT_EQ(v.value().size(), 3u);
    EXPECT_DOUBLE_EQ(v.value()[0], 0.5);
    EXPECT_DOUBLE_EQ(v.value()[2], 4.0);
    auto d = args.getPositiveList("absent", "2.5");
    ASSERT_TRUE(d.ok());
    ASSERT_EQ(d.value().size(), 1u);
    EXPECT_DOUBLE_EQ(d.value()[0], 2.5);
}

TEST(Cli, PositiveListNamesOptionAndBadToken)
{
    for (const char *bad : {"1.0,abc", "1e400", "2,0", "-1", "1x",
                            "inf", "nan", ","}) {
        const char *argv[] = {"prog", "--loads", bad};
        CliArgs args(3, argv);
        auto v = args.getPositiveList("loads", "1");
        ASSERT_FALSE(v.ok()) << bad;
        EXPECT_EQ(v.error().code(), ErrorCode::InvalidArgument);
        const std::string &msg = v.error().message();
        EXPECT_NE(msg.find("--loads"), std::string::npos) << msg;
    }
    const char *argv[] = {"prog", "--loads", "1.0,abc"};
    CliArgs args(3, argv);
    EXPECT_NE(args.getPositiveList("loads", "1").error().message().find(
                  "'abc'"),
              std::string::npos);
}

TEST(Cli, SplitList)
{
    auto v = splitList("a,b, c");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], "c");
}

} // anonymous namespace
} // namespace gqos
