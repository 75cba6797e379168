/**
 * @file
 * Warp-scheduler pick-policy unit tests (GTO).
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "sm/scheduler.hh"

namespace gqos
{
namespace
{

SchedulerState
withOrder(std::initializer_list<int> lanes_oldest_first)
{
    SchedulerState sc;
    for (int lane : lanes_oldest_first)
        sc.ageOrder[sc.ageCount++] = static_cast<std::uint8_t>(lane);
    return sc;
}

TEST(Gto, GreedyPrefersLastIssuedWarp)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 7;
    std::uint64_t cand = setBit(setBit(0, 7), 3);
    EXPECT_EQ(pickGto(sc, cand), 7);
}

TEST(Gto, FallsBackToOldestReady)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 5;
    std::uint64_t cand = setBit(setBit(0, 7), 3); // 5 not ready
    EXPECT_EQ(pickGto(sc, cand), 3);
}

TEST(Gto, SkipsOlderNonCandidates)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = -1;
    std::uint64_t cand = setBit(0, 7);
    EXPECT_EQ(pickGto(sc, cand), 7);
}

TEST(Gto, NoCandidateInOrderReturnsMinusOne)
{
    SchedulerState sc = withOrder({3});
    EXPECT_EQ(pickGto(sc, setBit(0, 9)), -1);
}

} // anonymous namespace
} // namespace gqos
