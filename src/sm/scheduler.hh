/**
 * @file
 * Per-warp-scheduler state and the GTO pick policy.
 *
 * Each SM has several warp schedulers; warp slot w belongs to
 * scheduler (w % numSchedulers), modelling the hardware's equal
 * distribution of warps to schedulers. The SM keeps every warp set
 * as one 64-bit mask over its warp slots (SmCore); scheduler s sees
 * only its own slots of each.
 */

#ifndef GQOS_SM_SCHEDULER_HH
#define GQOS_SM_SCHEDULER_HH

#include <cstdint>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/bitops.hh"

namespace gqos
{

/** Age rank of a slot that holds no warp of this scheduler; it
 *  ranks after every warp. */
constexpr std::uint8_t noAgeRank = 0xFF;

/** State of one warp scheduler (one issue port): its GTO order. */
struct SchedulerState
{
    /**
     * GTO greedy hint: the slot this scheduler last issued from and
     * the cycle it did so. The hint holds only on the next cycle;
     * any cycle without an issue -- executed or skipped -- breaks
     * it, so an idle span leaves no hint state to reset.
     */
    Cycle lastIssueAt = 0;
    int lastIssued = -1;
    /**
     * Dispatch-age rank of each warp slot's warp among this
     * scheduler's warps: 0 is its oldest warp; slots of other
     * schedulers and unoccupied slots hold noAgeRank. Rebuilt only
     * when warps enter or leave the SM, so the per-cycle GTO pick is
     * a minimum over the candidate bits instead of a walk in age
     * order.
     */
    std::uint8_t ageRank[64];

    SchedulerState()
    {
        for (std::uint8_t &r : ageRank)
            r = noAgeRank;
    }
};

/**
 * Pick a warp slot from @p candidates using greedy-then-oldest.
 *
 * @param sched scheduler state (greedy hint + age ranks)
 * @param candidates mask of issuable slots, all of this scheduler
 * @param now the current cycle: the greedy hint is honoured only
 *        if the scheduler issued on cycle now - 1
 * @return chosen slot, or -1 if no candidate holds a warp
 */
inline int
pickGto(const SchedulerState &sched, std::uint64_t candidates,
        Cycle now)
{
    if (sched.lastIssued >= 0 && sched.lastIssueAt + 1 == now &&
        testBit(candidates, sched.lastIssued)) {
        return sched.lastIssued;
    }
    int best = -1;
    unsigned best_rank = noAgeRank;
    for (; candidates; candidates &= candidates - 1) {
        int slot = firstSetBit(candidates);
        if (sched.ageRank[slot] < best_rank) {
            best_rank = sched.ageRank[slot];
            best = slot;
        }
    }
    return best;
}

} // namespace gqos

#endif // GQOS_SM_SCHEDULER_HH
