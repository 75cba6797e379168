/**
 * @file
 * Cache tag-array tests: hit/miss behaviour, LRU replacement,
 * per-kernel ownership and invalidation, plus parameterized
 * geometry sweeps.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"

namespace gqos
{
namespace
{

TEST(Cache, MissThenHit)
{
    Cache c(8 * 1024, 4);
    Addr a = 0x1000;
    EXPECT_FALSE(c.access(a, 0));
    EXPECT_TRUE(c.access(a, 0));
    EXPECT_TRUE(c.access(a + lineSizeBytes - 1, 0)); // same line
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, WorkingSetWithinCapacityHits)
{
    Cache c(64 * 1024, 8); // 512 lines
    Rng rng(1);
    const int lines = 256;
    Addr base = Addr(1) << 30;
    for (int i = 0; i < 4 * lines; ++i)
        c.access(base + rng.below(lines) * lineSizeBytes, 0);
    c.resetStats();
    for (int i = 0; i < 10000; ++i)
        c.access(base + rng.below(lines) * lineSizeBytes, 0);
    EXPECT_LT(c.stats().missRate(), 0.01);
}

TEST(Cache, StreamAlwaysMisses)
{
    Cache c(8 * 1024, 4); // 64 lines
    for (Addr i = 0; i < 1000; ++i)
        c.access(i * lineSizeBytes, 0);
    EXPECT_EQ(c.stats().misses, 1000u);
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped-ish scenario: a 1-set cache of 4 ways.
    Cache c(4 * lineSizeBytes, 4);
    ASSERT_EQ(c.numSets(), 1);
    // Fill 4 distinct lines, touch line 0 again, insert a 5th:
    // the LRU victim must not be line 0.
    Addr lines[5] = {0, 1 << 20, 2 << 20, 3 << 20, 4 << 20};
    for (int i = 0; i < 4; ++i)
        c.access(lines[i], 0);
    EXPECT_TRUE(c.access(lines[0], 0));
    c.access(lines[4], 0); // evicts lines[1] (oldest)
    EXPECT_TRUE(c.probe(lines[0]));
    EXPECT_FALSE(c.probe(lines[1]));
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(8 * 1024, 4);
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000, 0)); // still a miss
}

TEST(Cache, InvalidateKernelRemovesOnlyItsLines)
{
    Cache c(8 * 1024, 4);
    c.access(0x0, 0);
    c.access(0x10000, 1);
    EXPECT_EQ(c.linesOwnedBy(0), 1);
    EXPECT_EQ(c.linesOwnedBy(1), 1);
    c.invalidateKernel(0);
    EXPECT_EQ(c.linesOwnedBy(0), 0);
    EXPECT_EQ(c.linesOwnedBy(1), 1);
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_TRUE(c.probe(0x10000));
}

TEST(Cache, HighestKernelIdOwnsAndInvalidates)
{
    // Line owners are stored narrowed; the largest KernelId of a
    // co-run must round-trip through ownership, counting, LRU
    // re-allocation and invalidation.
    const KernelId last = maxKernels - 1;
    Cache c(4 * lineSizeBytes, 4); // one 4-way set
    ASSERT_EQ(c.numSets(), 1);
    Addr lines[5] = {0, 1 << 20, 2 << 20, 3 << 20, 4 << 20};
    for (int i = 0; i < 3; ++i)
        c.access(lines[i], last);
    c.access(lines[3], 0);
    EXPECT_EQ(c.linesOwnedBy(last), 3);
    EXPECT_EQ(c.linesOwnedBy(0), 1);
    EXPECT_EQ(c.linesOwnedBy(invalidKernel), 0);
    c.access(lines[4], 0); // evicts lines[0], owned by last
    EXPECT_EQ(c.linesOwnedBy(last), 2);
    EXPECT_EQ(c.linesOwnedBy(0), 2);
    c.invalidateKernel(last);
    EXPECT_EQ(c.linesOwnedBy(last), 0);
    EXPECT_EQ(c.linesOwnedBy(0), 2);
    EXPECT_FALSE(c.probe(lines[1]));
    EXPECT_FALSE(c.probe(lines[2]));
    EXPECT_TRUE(c.probe(lines[3]));
    EXPECT_TRUE(c.probe(lines[4]));
}

TEST(CacheDeath, RejectsIndivisibleGeometry)
{
    EXPECT_EXIT(Cache(1000, 3), ::testing::ExitedWithCode(1), "");
}

/**
 * Property sweep: for any geometry, a working set within capacity
 * converges to (near-)zero misses, and the set-index hash keeps the
 * load across sets balanced enough that no set thrashes.
 */
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(CacheGeometry, CapacityWorkingSetConverges)
{
    auto [size_kb, assoc] = GetParam();
    Cache c(size_kb * 1024, assoc);
    int total_lines = size_kb * 1024 / lineSizeBytes;
    int ws = total_lines / 2;
    Rng rng(42);
    Addr base = Addr(5) << 33;
    for (int i = 0; i < ws * 6; ++i)
        c.access(base + rng.below(ws) * lineSizeBytes, 0);
    c.resetStats();
    for (int i = 0; i < ws * 20; ++i)
        c.access(base + rng.below(ws) * lineSizeBytes, 0);
    EXPECT_LT(c.stats().missRate(), 0.02)
        << size_kb << "KB/" << assoc << "-way";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair{8, 2}, std::pair{16, 4},
                      std::pair{24, 6}, std::pair{64, 8},
                      std::pair{512, 16}));

/**
 * The regression that motivated the avalanche hashes: lines
 * restricted to one memory partition (every 4th line) must still
 * spread over the cache sets.
 */
TEST(Cache, PartitionStridedLinesStillSpread)
{
    Cache c(512 * 1024, 16); // 256 sets, 16 ways
    // 1536 lines, stride 4 (as a partition would see them).
    Addr base = Addr(1) << 40;
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < 1536; ++i)
            c.access(base + (4 * i) * lineSizeBytes, 0);
    }
    c.resetStats();
    for (int i = 0; i < 1536; ++i)
        c.access(base + (4 * i) * lineSizeBytes, 0);
    EXPECT_LT(c.stats().missRate(), 0.05);
}

} // anonymous namespace
} // namespace gqos
