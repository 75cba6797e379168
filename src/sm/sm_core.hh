/**
 * @file
 * Streaming-multiprocessor core model.
 *
 * Executes warps of co-resident thread blocks from multiple kernels
 * (fine-grained / SMK sharing). Implements the paper's Enhanced Warp
 * Scheduler: the baseline GTO policy is applied unmodified, but a
 * kernel whose per-SM quota counter is exhausted is excluded from
 * candidate selection (Section 3.3).
 */

#ifndef GQOS_SM_SM_CORE_HH
#define GQOS_SM_SM_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/scheduler.hh"
#include "sm/warp.hh"
#include "telemetry/cycle_accounting.hh"

namespace gqos
{

/** Why a TB left the SM. */
enum class TbExit : std::uint8_t
{
    Completed, //!< ran to completion
    Preempted  //!< evicted by a partial context switch
};

/** Per-SM, per-kernel execution statistics. */
struct SmKernelStats
{
    std::uint64_t threadInstrs = 0; //!< lanes executed (IPC metric)
    std::uint64_t warpInstrs = 0;
    std::uint64_t iwSampleSum = 0;  //!< idle-warp sample accumulator
    std::uint32_t iwSamples = 0;
    std::uint64_t gatedCycles = 0;  //!< cycles spent quota-gated
    /**
     * Mid-epoch quota additions (refill grants and Rollover-Time
     * releases). Lifetime-monotonic: not cleared at epoch
     * boundaries, consumers snapshot and diff.
     */
    std::uint64_t quotaRefills = 0;
};

/** Per-SM activity statistics (power model inputs). */
struct SmStats
{
    std::uint64_t cycles = 0;
    std::uint64_t activeCycles = 0; //!< cycles with >= 1 issue
    std::uint64_t issuedAlu = 0;
    std::uint64_t issuedSfu = 0;
    std::uint64_t issuedSmem = 0;
    std::uint64_t issuedLoads = 0;
    std::uint64_t issuedStores = 0;
    std::uint64_t preemptions = 0;
};

/**
 * One SM: warp contexts, TB slots, warp schedulers, LSU port and
 * MSHR accounting, plus the EWS quota counters.
 */
class SmCore
{
  public:
    /** Callback invoked when a TB leaves the SM. */
    using TbEventFn =
        std::function<void(SmId, KernelId, TbExit)>;

    SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem);

    /** Bind the co-run's kernels; index in @p runs is the KernelId. */
    void bindKernels(const std::vector<const KernelRun *> &runs);

    /** Register the TB-exit callback (TB scheduler). */
    void setTbEventCallback(TbEventFn fn) { tbEvent_ = std::move(fn); }

    // ---- TB lifecycle ----

    /** True if a TB of kernel @p k fits right now. */
    bool canAccept(KernelId k) const;

    /**
     * Dispatch one TB of kernel @p k.
     * @param tb_seq global dispatch sequence number (issue age)
     * @param launch_pos TB index within the kernel's launch (grid
     *        position; selects the instruction stream & intensity)
     * @return false if it does not fit
     */
    bool dispatchTb(KernelId k, std::uint64_t tb_seq,
                    std::uint64_t launch_pos, Cycle now);

    /**
     * Begin a partial context switch evicting one TB of kernel
     * @p k (the youngest resident TB). The TB-exit callback fires
     * when the context transfer completes.
     * @return false if no evictable TB exists
     */
    bool startPreemption(KernelId k, Cycle now);

    /** Evict every resident TB (SM-granularity context switch). */
    void preemptAll(Cycle now);

    /** True while any context switch is in flight (Section 3.6). */
    bool preemptionPending() const { return !drains_.empty(); }

    // ---- execution ----

    /**
     * Advance one core cycle.
     * @param sample_iw record an idle-warp sample this cycle
     * @param next_event when non-null and no instruction issued,
     *        receives the earliest cycle > @p now at which this SM
     *        might do real work: issue, process a wake/drain/MSHR
     *        release, or change any idle-warp sampling input
     *        (cycleNever: inert until external input -- a dispatch
     *        or a quota change -- arrives). Untouched when the SM
     *        issued.
     *
     * This bound is the event engine's only source of "when does
     * this SM next need the clock". The contract behind its
     * bit-identity claim: if a no-issue cycle(now) yields X, then
     * running cycle() for every cycle in [now + 1, X) -- with
     * mutVersion() unchanged -- would change nothing except the
     * pure-function-of-time counters that skipCycles() batch-applies
     * (cycles, epochCycles_, gated cycles, attribution, idle-warp
     * samples, and the schedulers' greedy hints, which a
     * no-candidate cycle resets to -1 anyway).
     *
     * @return true if any scheduler issued an instruction
     */
    bool cycle(Cycle now, bool sample_iw,
               Cycle *next_event = nullptr);

    // ---- event-engine control points ----

    /**
     * Batch-account @p span cycles starting at @p now, including
     * @p samples idle-warp sampling points falling inside the span.
     * Must only follow a no-issue cycle() whose bound covers the
     * span, at the same mutVersion(): attribution replays the
     * categories that cycle() classified.
     */
    void skipCycles(Cycle now, Cycle span, Cycle samples);

    /**
     * O(1) deferred variant of skipCycles(now, 1, 0): note one
     * proven-inert, non-sampling cycle without touching any
     * counters yet. The owed accounting is settled lazily -- every
     * statistics reader and every external mutator settles first,
     * so no observer ever sees a stale view, and the quota-gating
     * mask is provably unchanged between deferral and settlement
     * (any mask change goes through a settling mutator).
     */
    void deferInertCycle() { deferredInert_++; }

    /**
     * External-mutation version, for the event engine's per-SM
     * inertia cache (Gpu::step(event_aware)). Bumped by every
     * mutation arriving from outside cycle() that can change this
     * SM's inertness: TB dispatch, preemption start, quota updates
     * and gating toggles. A cycle() bound computed at version V
     * stays valid while mutVersion() == V (internal evolution --
     * wakes, drains, MSHR releases -- is exactly what the bound
     * accounts for, and cross-SM interconnect traffic can only
     * delay a store-throttle unblock, never advance an event).
     */
    std::uint64_t mutVersion() const { return mutVersion_; }

    // ---- EWS quota interface ----

    /** Enable/disable quota gating (off = plain GTO sharing). */
    void setQuotaGating(bool on);
    bool quotaGating() const { return quotaGating_; }

    void setQuota(KernelId k, double q);
    void addQuota(KernelId k, double q);
    double quota(KernelId k) const;

    /**
     * True if every kernel with resident TBs has a non-positive
     * quota counter (the mid-epoch refill condition, Section 3.4.1).
     */
    bool allQuotasExhausted() const;

    // ---- occupancy / resources ----

    int residentTbs(KernelId k) const;
    int residentWarps(KernelId k) const;
    int totalResidentTbs() const;
    int freeThreads() const { return maxThreads_ - threadsUsed_; }
    int threadsUsed() const { return threadsUsed_; }
    int numKernels() const { return static_cast<int>(runs_.size()); }

    // ---- cycle attribution (telemetry/cycle_accounting.hh) ----

    /**
     * Enable the cycle-attribution profiler. Must be called before
     * the SM's first cycle so the conservation invariant (every
     * category sum telescopes to stats().cycles) holds from cycle 0.
     * Off by default; the off path costs one predictable branch per
     * cycle and per issue.
     */
    void setCycleAccounting(bool on);
    bool cycleAccounting() const { return accounting_; }

    /**
     * Attribution counters of kernel @p k on this SM. With
     * accounting enabled, the categories of every bound kernel sum
     * exactly to stats().cycles — on both stepping engines.
     */
    const CycleBreakdown &
    cycleBreakdown(KernelId k) const
    {
        settle();
        return kernels_[k].breakdown;
    }

    // ---- statistics ----

    const SmKernelStats &kernelStats(KernelId k) const;
    const SmStats &
    stats() const
    {
        settle();
        return stats_;
    }

    /** Average idle warps of @p k over samples since last reset. */
    double iwAverage(KernelId k) const;

    /**
     * Fraction of cycles since the last sample reset that kernel
     * @p k spent with an exhausted quota (EWS-gated).
     */
    double gatedFraction(KernelId k) const;

    /** Clear per-epoch idle-warp/gating samples (epoch boundary). */
    void resetIwSamples();

    SmId id() const { return id_; }

  private:
    struct KernelCtx
    {
        const KernelRun *run = nullptr;
        double quota = 0.0;
        int residentTbs = 0;
        int residentWarps = 0;
        int drainingTbs = 0; //!< TBs mid context-switch drain
        int mshrHeld = 0; //!< outstanding L1 misses of this kernel
        SmKernelStats stats;
        CycleBreakdown breakdown; //!< cycle attribution (if enabled)
    };

    struct Drain
    {
        Cycle finishAt;
        std::int16_t slot;
    };

    struct WakeEntry
    {
        std::uint16_t warp;
        std::uint32_t token;
    };

    static constexpr int wakeRingSize_ = 4096;

    int schedOf(int warp_slot) const
    {
        return warp_slot % numScheds_;
    }
    int laneOf(int warp_slot) const
    {
        return warp_slot / numScheds_;
    }
    int slotOf(int sched, int lane) const
    {
        return lane * numScheds_ + sched;
    }

    /** Apply the counter side of an inert span (no samples). */
    void applyInertSpan(Cycle span);
    void settleDeferred();
    /** Count @p span gated cycles for kernels outside @p allowed. */
    void addGatedCycles(std::uint32_t allowed, Cycle span);
    /**
     * Record @p samples identical idle-warp samples of the current
     * ready masks under the EWS mask @p allowed.
     */
    void sampleIdleWarps(std::uint32_t allowed, bool lsu_full,
                         bool store_blocked, Cycle samples);
    /**
     * Attribution category of kernel @p k on a cycle where it did
     * not issue, from the facts the issue arbiter derived:
     * @p allowed is the EWS quota mask, @p any_ready / @p
     * any_nonmem_ready describe the kernel's ready warps before
     * arbitration. Pure function of frozen state on inert cycles.
     */
    CycleCat classifyStalled(int k, std::uint32_t allowed,
                             bool any_ready,
                             bool any_nonmem_ready) const;
    /**
     * Settle any deferred inert cycles. Logically const: it only
     * materializes accounting the SM already owes.
     */
    void
    settle() const
    {
        if (deferredInert_ > 0)
            const_cast<SmCore *>(this)->settleDeferred();
    }

    void rebuildAgeOrder(int sched);
    Cycle nextWakeAfter(Cycle now) const;
    std::uint32_t allowedKernelMask() const;
    std::uint32_t mshrOkKernelMask() const;
    bool storeThrottled(Cycle now) const;
    void scheduleWake(int warp_slot, Cycle at);
    void processWakes(Cycle now);
    void processDrains(Cycle now);
    void markReady(int warp_slot);
    void clearSchedBits(int warp_slot);
    void refreshInstrMasks(int warp_slot);
    void generateNext(Warp &w, const KernelRun &run);
    void issueWarp(int warp_slot, Cycle now);
    void retireInstr(Warp &w, KernelCtx &kc, Cycle ready_at);
    void finishWarp(int warp_slot, Cycle now);
    void freeTb(int tb_slot, TbExit exit, Cycle now);
    Addr genAddress(Warp &w, const PhaseRt &ph,
                    const KernelRun &run);

    // configuration (copied for locality)
    SmId id_;
    int numScheds_;
    int maxWarps_;
    int maxThreads_;
    int maxTbSlots_;
    int regsTotal_;
    int smemTotal_;
    int lsuPorts_;
    int mshrMax_;
    int sfuLatency_;
    int drainCycles_;
    bool chargePreemptTraffic_;
    SchedPolicy policy_;

    MemSystem *mem_;
    std::vector<const KernelRun *> runs_;
    std::array<KernelCtx, maxKernels> kernels_;
    std::vector<Warp> warps_;
    std::vector<TbSlot> tbs_;
    std::vector<SchedulerState> scheds_;

    // resources
    int threadsUsed_ = 0;
    int regsUsed_ = 0;
    int smemUsed_ = 0;
    int tbSlotsUsed_ = 0;

    // wake machinery
    std::vector<std::vector<WakeEntry>> wakeRing_;
    std::vector<std::uint32_t> wakeToken_;
    /**
     * Entries currently sitting in the ring (including stale ones
     * whose token no longer matches). Lets cycle()'s next-event
     * bound skip the ring scan entirely on a wake-free SM.
     */
    std::int64_t pendingWakes_ = 0;
    /**
     * Occupancy bitmap over the wake ring: bit i set iff
     * wakeRing_[i] is nonempty. Turns nextWakeAfter()'s
     * next-nonempty-bucket scan into a word-at-a-time search.
     */
    std::array<std::uint64_t, wakeRingSize_ / 64> wakeBits_{};

    // MSHR release queue: (completion cycle, owning kernel). When
    // kernels share an SM, each kernel's in-flight misses are capped
    // below the pool size so one memory-intensive kernel cannot
    // permanently monopolize the MSHRs and starve the loads of its
    // co-resident kernels.
    std::priority_queue<std::pair<Cycle, KernelId>,
                        std::vector<std::pair<Cycle, KernelId>>,
                        std::greater<>> mshrRelease_;
    int mshrFree_;

    std::vector<Drain> drains_;
    bool quotaGating_ = false;
    bool accounting_ = false; //!< cycle-attribution profiler on
    /**
     * Attribution cache for skipped inert cycles: the category of
     * each kernel, written by the most recent no-issue cycle().
     * Valid for every deferInertCycle() and skipCycles() that
     * follows, because the Gpu only skips under a
     * mutVersion()-valid inertia cache (every external mutation
     * settles first, then bumps the version), so the classified
     * state is frozen until settlement.
     */
    std::array<CycleCat, maxKernels> inertClass_{};
    Cycle epochCycles_ = 0; //!< cycles since last sample reset
    std::uint64_t mutVersion_ = 0; //!< see mutVersion()
    Cycle deferredInert_ = 0; //!< see deferInertCycle()

    SmStats stats_;
    TbEventFn tbEvent_;
};

} // namespace gqos

#endif // GQOS_SM_SM_CORE_HH
