/**
 * @file
 * A timer wheel for up to 64 ids (Varghese & Lauck, "Hashed and
 * Hierarchical Timing Wheels", SOSP 1987). An SM files its waiting
 * warps in one, the Gpu its parked SMs.
 */

#ifndef GQOS_COMMON_DUE_WHEEL_HH
#define GQOS_COMMON_DUE_WHEEL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "arch/types.hh"
#include "common/bitops.hh"
#include "common/logging.hh"

namespace gqos
{

/**
 * Ids 0..63, each with at most one pending due cycle.
 *
 * A due less than @p Slots cycles out sets the id's bit in ring slot
 * `due % Slots` and the slot's bit in an occupancy bitmap. A farther
 * due joins the far set, whose earliest due is kept exact; take()
 * moves far ids into the ring once they come within the horizon, so
 * it scans the far set only when that minimum has come that close.
 *
 * The owner must never let its clock pass a pending due: it calls
 * take(t) on every cycle t that next() reports, and on no cycle
 * before one it has already taken. Then every ring due lies within
 * one horizon of the next take(), so a slot holds one due cycle and
 * slot order from the current cycle is due order.
 */
template <std::size_t Slots>
class DueWheel
{
    static_assert(std::has_single_bit(Slots) && Slots % 64 == 0);

  public:
    /**
     * File @p id, which has no pending due, at @p due > @p now, the
     * owner's current cycle. A cycleNever due is only recorded: no
     * take() returns the id, and remove() forgets it.
     */
    void
    add(int id, Cycle due, Cycle now)
    {
        gqos_assert(due > now);
        due_[id] = due;
        if (due == cycleNever)
            return;
        if (due - now < Slots) {
            place(id, due);
        } else {
            far_ = setBit(far_, id);
            farMin_ = std::min(farMin_, due);
        }
    }

    /** Drop the pending (or cycleNever) due of @p id. */
    void
    remove(int id)
    {
        const Cycle due = std::exchange(due_[id], cycleNever);
        if (testBit(far_, id)) {
            far_ = clearBit(far_, id);
            if (due == farMin_) {
                farMin_ = cycleNever;
                for (std::uint64_t m = far_; m; m &= m - 1)
                    farMin_ = std::min(farMin_, due_[firstSetBit(m)]);
            }
        } else if (due != cycleNever) {
            const std::size_t slot = due & (Slots - 1);
            gqos_assert(testBit(ring_[slot], id));
            ring_[slot] = clearBit(ring_[slot], id);
            if (!ring_[slot])
                occ_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        }
    }

    /** The ids due at @p now; they leave the wheel. */
    std::uint64_t
    take(Cycle now)
    {
        // A due right at now lands in now's slot, emptied below.
        if (farMin_ < now + Slots) {
            farMin_ = cycleNever;
            for (std::uint64_t m = far_; m; m &= m - 1) {
                const int id = firstSetBit(m);
                if (due_[id] < now + Slots) {
                    far_ = clearBit(far_, id);
                    place(id, due_[id]);
                } else {
                    farMin_ = std::min(farMin_, due_[id]);
                }
            }
        }
        const std::size_t slot = now & (Slots - 1);
        std::uint64_t &occupied = occ_[slot >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
        if (!(occupied & bit))
            return 0;
        occupied &= ~bit;
        return std::exchange(ring_[slot], 0);
    }

    /**
     * The earliest pending due at or after @p from (no pending due
     * may lie before it), or cycleNever: the first occupied slot
     * from @p from's on, or the far minimum. A word-at-a-time scan
     * of the occupancy bitmap; the wrap iteration (i == words)
     * re-reads the start word's low bits, the far end of the
     * horizon.
     */
    Cycle
    next(Cycle from) const
    {
        constexpr int words = Slots / 64;
        const int start = static_cast<int>(from & (Slots - 1));
        int wi = start >> 6;
        std::uint64_t word = occ_[wi] & (~std::uint64_t{0} << (start & 63));
        for (int i = 0; i <= words; ++i) {
            if (i == words)
                word = occ_[start >> 6] &
                       ~(~std::uint64_t{0} << (start & 63));
            if (word) {
                const int slot = (wi << 6) + std::countr_zero(word);
                return std::min(
                    farMin_,
                    from + static_cast<Cycle>((slot - start) &
                                              (Slots - 1)));
            }
            wi = (wi + 1) & (words - 1);
            word = occ_[wi];
        }
        return farMin_;
    }

    /** Drop every due. */
    void
    clear()
    {
        due_.fill(cycleNever);
        ring_.fill(0);
        occ_.fill(0);
        far_ = 0;
        farMin_ = cycleNever;
    }

  private:
    void
    place(int id, Cycle due)
    {
        const std::size_t slot = due & (Slots - 1);
        ring_[slot] = setBit(ring_[slot], id);
        occ_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }

    // The fields every take() and next() reads come first.
    /** Ids due at or beyond the horizon, and their earliest due. */
    std::uint64_t far_ = 0;
    Cycle farMin_ = cycleNever;
    /** Bit i set iff ring_[i] is non-zero. */
    std::array<std::uint64_t, Slots / 64> occ_{};
    /** The due cycle of each id (stale once taken). */
    std::array<Cycle, 64> due_{};
    /** Id mask due at each cycle of the horizon. */
    std::array<std::uint64_t, Slots> ring_{};
};

} // namespace gqos

#endif // GQOS_COMMON_DUE_WHEEL_HH
