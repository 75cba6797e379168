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
withOrder(std::initializer_list<int> slots_oldest_first)
{
    SchedulerState sc;
    std::uint8_t rank = 0;
    for (int slot : slots_oldest_first)
        sc.ageRank[slot] = rank++;
    return sc;
}

/** Slots of scheduler @p s among @p n: slot % n == s. */
std::uint64_t
schedSlots(int s, int n)
{
    std::uint64_t sel = 0;
    for (int slot = s; slot < 64; slot += n)
        sel = setBit(sel, slot);
    return sel;
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

TEST(Gto, TwoSchedulersSeeOnlyTheirOwnSlots)
{
    // Slots alternate between two schedulers. Each rank orders a
    // warp among its own scheduler's warps, so both schedulers have
    // a rank-0 warp, and the issue loop hands each pickGto only its
    // own slots of the SM-wide ready mask.
    SchedulerState even = withOrder({6, 2, 4});
    SchedulerState odd = withOrder({1, 5, 3});
    const std::uint64_t sel0 = schedSlots(0, 2);
    const std::uint64_t sel1 = schedSlots(1, 2);
    EXPECT_EQ(sel0 | sel1, ~std::uint64_t{0});
    EXPECT_EQ(sel0 & sel1, 0u);
    std::uint64_t ready = 0;
    for (int slot : {1, 2, 3, 4, 5, 6})
        ready = setBit(ready, slot);
    EXPECT_EQ(pickGto(even, ready & sel0, 100), 6);
    EXPECT_EQ(pickGto(odd, ready & sel1, 100), 1);

    ready = clearBit(clearBit(ready, 6), 1);
    EXPECT_EQ(pickGto(even, ready & sel0, 100), 2);
    EXPECT_EQ(pickGto(odd, ready & sel1, 100), 5);

    // The greedy hint is a slot of the scheduler's own.
    odd.lastIssued = 3;
    odd.lastIssueAt = 99;
    EXPECT_EQ(pickGto(odd, ready & sel1, 100), 3);
    EXPECT_EQ(pickGto(even, ready & sel0, 100), 2);
}

/**
 * Differential check against the definition of GTO: the greedy
 * slot if it issued last cycle and is a candidate, else the oldest
 * occupied candidate by dispatch age, else -1. Random occupied slot
 * sets, age orders, candidate masks (empty ones, and ones with
 * unoccupied slots, included) and hint cycles.
 */
TEST(Gto, MatchesGreedyThenOldestReference)
{
    Rng rng(20);
    for (int trial = 0; trial < 20000; ++trial) {
        std::vector<int> oldest_first;
        std::uint64_t occupied = 0;
        for (int slot = 0; slot < 64; ++slot) {
            if (rng.chance(0.4)) {
                oldest_first.push_back(slot);
                occupied = setBit(occupied, slot);
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
          case 1: // occupied slots only
            cand = occupied & rng.next() & rng.next();
            break;
          case 2: // unoccupied slots only
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
            for (int slot : oldest_first) {
                if (testBit(cand, slot)) {
                    expect = slot;
                    break;
                }
            }
        }
        ASSERT_EQ(pickGto(sc, cand, now), expect)
            << "trial " << trial << " cand " << std::hex << cand;
    }
}

/**
 * Two schedulers over one SM: random warp ages on random slots,
 * ranked per scheduler as SmCore::rebuildAgeOrder does. Scheduler
 * s, given the SM-wide candidates masked to its slots, picks the
 * oldest candidate warp among its own slots and never another
 * scheduler's.
 */
TEST(Gto, PerSchedulerRanksPickTheSchedulersOldest)
{
    Rng rng(29);
    constexpr int n = 2;
    for (int trial = 0; trial < 5000; ++trial) {
        std::uint64_t age[64];
        std::uint64_t occupied = 0;
        for (int slot = 0; slot < 64; ++slot) {
            age[slot] = rng.next();
            if (rng.chance(0.5))
                occupied = setBit(occupied, slot);
        }
        SchedulerState sc[n];
        for (int s = 0; s < n; ++s) {
            std::vector<int> order;
            for (int slot = s; slot < 64; slot += n) {
                if (testBit(occupied, slot))
                    order.push_back(slot);
            }
            std::sort(order.begin(), order.end(),
                      [&](int a, int b) { return age[a] < age[b]; });
            for (std::size_t i = 0; i < order.size(); ++i)
                sc[s].ageRank[order[i]] = static_cast<std::uint8_t>(i);
        }
        const std::uint64_t cand = occupied & rng.next();
        for (int s = 0; s < n; ++s) {
            int expect = -1;
            for (int slot = s; slot < 64; slot += n) {
                if (testBit(cand, slot) &&
                    (expect < 0 || age[slot] < age[expect]))
                    expect = slot;
            }
            ASSERT_EQ(pickGto(sc[s], cand & schedSlots(s, n), 100),
                      expect)
                << "trial " << trial << " scheduler " << s;
        }
    }
}

} // anonymous namespace
} // namespace gqos
