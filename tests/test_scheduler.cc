/**
 * @file
 * Warp-scheduler pick-policy unit tests (GTO).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "sm/scheduler.hh"

namespace gqos
{
namespace
{

SchedulerState
withOrder(std::initializer_list<int> lanes_oldest_first)
{
    SchedulerState sc;
    std::uint8_t rank = 0;
    for (int lane : lanes_oldest_first)
        sc.ageRank[lane] = rank++;
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

/**
 * Differential check against the definition of GTO: the greedy
 * lane if it issued last cycle and is a candidate, else the oldest
 * occupied candidate by dispatch age, else -1. Random occupied lane
 * sets, age orders, candidate masks (empty ones, and ones with
 * unoccupied lanes, included) and hint cycles.
 */
TEST(Gto, MatchesGreedyThenOldestReference)
{
    Rng rng(20);
    for (int trial = 0; trial < 20000; ++trial) {
        std::vector<int> oldest_first;
        std::uint64_t occupied = 0;
        for (int lane = 0; lane < 64; ++lane) {
            if (rng.chance(0.4)) {
                oldest_first.push_back(lane);
                occupied = setBit(occupied, lane);
            }
        }
        for (std::size_t i = oldest_first.size(); i > 1; --i)
            std::swap(oldest_first[i - 1],
                      oldest_first[rng.below(i)]);
        SchedulerState sc;
        for (std::size_t i = 0; i < oldest_first.size(); ++i)
            sc.ageRank[oldest_first[i]] = static_cast<std::uint8_t>(i);

        std::uint64_t cand = 0;
        switch (rng.below(4)) {
          case 0: // empty
            break;
          case 1: // occupied lanes only
            cand = occupied & rng.next() & rng.next();
            break;
          case 2: // unoccupied lanes only
            cand = ~occupied & rng.next();
            break;
          default: // a mix
            cand = rng.next() & rng.next();
            break;
        }
        const Cycle now = 100;
        if (rng.chance(0.7)) {
            sc.lastIssued = oldest_first.empty() || rng.chance(0.2)
                ? static_cast<int>(rng.below(64))
                : oldest_first[rng.below(oldest_first.size())];
            sc.lastIssueAt = now - 1 - rng.below(3);
        }

        int expect = -1;
        if (sc.lastIssued >= 0 && sc.lastIssueAt + 1 == now &&
            testBit(cand, sc.lastIssued)) {
            expect = sc.lastIssued;
        } else {
            for (int lane : oldest_first) {
                if (testBit(cand, lane)) {
                    expect = lane;
                    break;
                }
            }
        }
        ASSERT_EQ(pickGto(sc, cand, now), expect)
            << "trial " << trial << " cand " << std::hex << cand;
    }
}

} // anonymous namespace
} // namespace gqos
