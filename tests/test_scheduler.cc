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
    sc.lastIssueAt = 99;
    std::uint64_t cand = setBit(setBit(0, 7), 3);
    EXPECT_EQ(pickGto(sc, cand, 100), 7);
}

TEST(Gto, FallsBackToOldestReady)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 5;
    sc.lastIssueAt = 99;
    std::uint64_t cand = setBit(setBit(0, 7), 3); // 5 not ready
    EXPECT_EQ(pickGto(sc, cand, 100), 3);
}

TEST(Gto, SkipsOlderNonCandidates)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = -1;
    std::uint64_t cand = setBit(0, 7);
    EXPECT_EQ(pickGto(sc, cand, 100), 7);
}

TEST(Gto, NoCandidateInOrderReturnsMinusOne)
{
    SchedulerState sc = withOrder({3});
    EXPECT_EQ(pickGto(sc, setBit(0, 9), 100), -1);
}

TEST(Gto, HintHoldsOnlyOnTheNextCycle)
{
    // A hint from cycle t holds at t + 1. At t + 2 or later -- the
    // state an idle or skipped span leaves -- the pick is oldest
    // first, as if the hint had been reset.
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 7;
    sc.lastIssueAt = 40;
    std::uint64_t cand = setBit(setBit(0, 7), 3);
    EXPECT_EQ(pickGto(sc, cand, 41), 7);
    EXPECT_EQ(pickGto(sc, cand, 42), 3);
    EXPECT_EQ(pickGto(sc, cand, 40 + 1000), 3);
    // A fresh scheduler has no hint, even at cycle 1.
    SchedulerState fresh = withOrder({3, 5, 7});
    EXPECT_EQ(pickGto(fresh, cand, 1), 3);
}

} // anonymous namespace
} // namespace gqos
