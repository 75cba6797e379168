/**
 * @file
 * DueWheel unit tests: seeded add/remove/take/next sequences checked
 * against a brute-force array of due cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/bitops.hh"
#include "common/due_wheel.hh"
#include "common/rng.hh"

namespace gqos
{
namespace
{

/** How often a sequence reached each case the wheel must handle. */
struct Coverage
{
    int ringAdds = 0;
    int farAdds = 0;
    int neverAdds = 0;
    int farMinRemovals = 0;     //!< removed the far set's earliest due
    int lastInSlotRemovals = 0; //!< removed a ring slot's only id
    int farTakes = 0;           //!< take() returned a far id directly
    int wrappedNexts = 0;       //!< next() found a slot past slot 0
};

/**
 * Drive a DueWheel<Slots> the way its owners do -- take every cycle
 * the clock reaches, add dues after now, never skip past next() --
 * from cycle @p start with the ids below @p ids, and compare every
 * result with a model that holds each id's due (cycleNever: none).
 * Few ids often leave the wheel without ring dues, so far dues get
 * taken and removed. The model also tracks which ids the wheel keeps
 * in its far set: those added a horizon or more out that no take()
 * has yet brought within the horizon.
 */
template <std::size_t Slots>
Coverage
drive(std::uint64_t seed, Cycle start, int ids, int steps)
{
    constexpr Cycle horizon = Slots;
    DueWheel<Slots> wheel;
    std::array<Cycle, 64> due;
    due.fill(cycleNever);
    std::uint64_t recorded = 0; // ids added, not yet taken or removed
    std::uint64_t far = 0;
    Coverage cov;
    Rng rng(seed);

    // The earliest model due at or after from.
    auto earliest = [&](Cycle from) {
        Cycle best = cycleNever;
        for (Cycle d : due)
            if (d >= from)
                best = std::min(best, d);
        return best;
    };

    Cycle now = start;
    for (int step = 0; step < steps; ++step) {
        // The Gpu reads next(now) before it takes now.
        EXPECT_EQ(wheel.next(now), earliest(now)) << "cycle " << now;

        std::uint64_t expect = 0;
        for (int id = 0; id < 64; ++id) {
            if (due[id] == now) {
                // A far id due now: the take that moves it takes it.
                if (testBit(far, id))
                    cov.farTakes++;
                expect = setBit(expect, id);
                due[id] = cycleNever;
                recorded = clearBit(recorded, id);
            }
            if (due[id] < now + horizon)
                far = clearBit(far, id); // moves into the ring
        }
        EXPECT_EQ(wheel.take(now), expect) << "cycle " << now;

        if (rng.below(4000) == 0) {
            wheel.clear();
            due.fill(cycleNever);
            recorded = far = 0;
        }

        for (int op = static_cast<int>(rng.below(4)); op > 0; --op) {
            const int id = static_cast<int>(rng.below(ids));
            if (!testBit(recorded, id)) {
                Cycle d;
                const std::uint64_t kind = rng.below(20);
                if (kind < 10)
                    d = now + 1 + rng.below(horizon - 1);
                else if (kind < 13)
                    d = now + horizon - 1 + rng.below(3); // the edge
                else if (kind < 19)
                    d = now + horizon + rng.below(4 * horizon);
                else
                    d = cycleNever;
                wheel.add(id, d, now);
                recorded = setBit(recorded, id);
                due[id] = d;
                if (d == cycleNever) {
                    cov.neverAdds++;
                } else if (d - now >= horizon) {
                    far = setBit(far, id);
                    cov.farAdds++;
                } else {
                    cov.ringAdds++;
                }
                continue;
            }
            if (testBit(far, id)) {
                Cycle far_min = cycleNever;
                for (std::uint64_t m = far; m; m &= m - 1)
                    far_min = std::min(far_min, due[firstSetBit(m)]);
                if (due[id] == far_min)
                    cov.farMinRemovals++;
            } else if (due[id] != cycleNever) {
                int same_slot = 0;
                for (int other = 0; other < 64; ++other)
                    if (!testBit(far, other) && due[other] == due[id])
                        same_slot++;
                if (same_slot == 1)
                    cov.lastInSlotRemovals++;
            }
            wheel.remove(id);
            recorded = clearBit(recorded, id);
            far = clearBit(far, id);
            due[id] = cycleNever;
        }

        // An SM reads next(now + 1) after its cycle.
        const Cycle next = wheel.next(now + 1);
        EXPECT_EQ(next, earliest(now + 1)) << "cycle " << now;
        if (next != cycleNever && next - (now + 1) < horizon &&
            (next & (horizon - 1)) < ((now + 1) & (horizon - 1)))
            cov.wrappedNexts++;

        // Step one cycle, skip part way, or skip right to the next
        // due; with nothing due, any jump is sound.
        const Cycle bound =
            next == cycleNever ? now + 1 + 3 * horizon : next;
        switch (rng.below(3)) {
          case 0: now += 1; break;
          case 1: now += 1 + rng.below(bound - now); break;
          default: now = bound; break;
        }
        if (::testing::Test::HasFailure())
            break;
    }
    return cov;
}

template <std::size_t Slots>
void
checkAgainstModel()
{
    // Starts just before a slot-0 crossing and far from cycle 0.
    const Cycle starts[] = {0, 3 * Slots - 5, (Cycle{1} << 40) - 7};
    const int pools[] = {64, 3, 12};
    Coverage total;
    for (std::uint64_t seed = 0; seed < 9; ++seed) {
        Coverage c = drive<Slots>(seed + 1, starts[seed % 3],
                                  pools[seed / 3], 20000);
        total.ringAdds += c.ringAdds;
        total.farAdds += c.farAdds;
        total.neverAdds += c.neverAdds;
        total.farMinRemovals += c.farMinRemovals;
        total.lastInSlotRemovals += c.lastInSlotRemovals;
        total.farTakes += c.farTakes;
        total.wrappedNexts += c.wrappedNexts;
    }
    EXPECT_GT(total.ringAdds, 0);
    EXPECT_GT(total.farAdds, 0);
    EXPECT_GT(total.neverAdds, 0);
    EXPECT_GT(total.farMinRemovals, 0);
    EXPECT_GT(total.lastInSlotRemovals, 0);
    EXPECT_GT(total.farTakes, 0);
    EXPECT_GT(total.wrappedNexts, 0);
}

TEST(DueWheel, MatchesModelWith64Slots)
{
    checkAgainstModel<64>();
}

TEST(DueWheel, MatchesModelWith512Slots)
{
    checkAgainstModel<512>();
}

} // anonymous namespace
} // namespace gqos
