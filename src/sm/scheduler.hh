/**
 * @file
 * Per-warp-scheduler state and the GTO pick policy.
 *
 * Each SM has several warp schedulers; warp slot w belongs to
 * scheduler (w % numSchedulers) with local lane (w / numSchedulers),
 * modelling the hardware's equal distribution of warps to
 * schedulers. All sets are 64-bit masks over local lanes.
 */

#ifndef GQOS_SM_SCHEDULER_HH
#define GQOS_SM_SCHEDULER_HH

#include <cstdint>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/bitops.hh"

namespace gqos
{

/** Age rank of a lane that holds no warp; it ranks after every warp. */
constexpr std::uint8_t noAgeRank = 0xFF;

/**
 * State of one warp scheduler (one issue port). The fields every
 * cycle reads come first, so arbitration touches as few host cache
 * lines as it can; kernelMask[] is read only when the issue view is
 * rebuilt, by attribution and by idle-warp sampling.
 */
struct SchedulerState
{
    std::uint64_t ready = 0;     //!< lanes with an issuable warp
    /**
     * Class of each Live warp's next instruction: lanes whose next
     * instruction is a global load / store. Set whenever a warp
     * decodes its next instruction, cleared only when the warp stops
     * being Live (finish, preemption, free) -- not on issue, so a
     * waiting warp keeps its bits. Every reader ANDs these masks
     * with `ready` (candidate masking, the blocked-candidate bound,
     * the attribution snapshot, idle-warp sampling), so bits of
     * waiting lanes never change a result.
     */
    std::uint64_t loadMask = 0;
    std::uint64_t storeMask = 0;
    /**
     * Issue view (SmCore::rebuildView): lanes of kernels allowed by
     * EWS quota gating, and lanes of kernels at their MSHR cap.
     */
    std::uint64_t allowMask = 0;
    std::uint64_t mshrBlock = 0;
    /**
     * GTO greedy hint: the lane this scheduler last issued from and
     * the cycle it did so. The hint holds only on the next cycle;
     * any cycle without an issue -- executed or skipped -- breaks
     * it, so an idle span leaves no hint state to reset.
     */
    Cycle lastIssueAt = 0;
    int lastIssued = -1;
    /**
     * Dispatch-age rank of each lane's warp: 0 is the oldest warp,
     * unoccupied lanes hold noAgeRank. Rebuilt only when warps enter
     * or leave the scheduler, so the per-cycle GTO pick is a minimum
     * over the candidate bits instead of a walk in age order.
     */
    std::uint8_t ageRank[64];
    /** Lanes belonging to each kernel (for EWS quota gating). */
    std::uint64_t kernelMask[maxKernels] = {};

    SchedulerState()
    {
        for (std::uint8_t &r : ageRank)
            r = noAgeRank;
    }
};

/**
 * Pick a lane from @p candidates using greedy-then-oldest.
 *
 * @param sched scheduler state (greedy hint + age ranks)
 * @param candidates mask of issuable lanes
 * @param now the current cycle: the greedy hint is honoured only
 *        if the scheduler issued on cycle now - 1
 * @return chosen lane, or -1 if no candidate holds a warp
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
        int lane = firstSetBit(candidates);
        if (sched.ageRank[lane] < best_rank) {
            best_rank = sched.ageRank[lane];
            best = lane;
        }
    }
    return best;
}

} // namespace gqos

#endif // GQOS_SM_SCHEDULER_HH
