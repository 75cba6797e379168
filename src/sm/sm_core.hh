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
#include <memory>
#include <queue>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/due_wheel.hh"
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
 * The state a Gpu shares with its SMs, heap-held so the SMs' handle
 * survives a move of the Gpu. A standalone SM gets its own, whose
 * clock stays at 0 unless its owner advances it.
 */
struct GpuClock
{
    explicit GpuClock(const GpuConfig &cfg);

    /**
     * Every cycle before this one has run. An SM that was not
     * stepped through some of them (a parked SM) owes them, and
     * SmCore::settle() applies them as one inert span.
     */
    Cycle now = 0;
    /** Idle-warp samples fall on the multiples of this interval. */
    Cycle iwSampleInterval;
    /** See Gpu::quotaVersion(). */
    std::uint64_t quotaVersion = 0;
    /**
     * Bit s: SM s was mutated from outside its cycle() (kernel
     * binding, TB dispatch, preemption start, a quota or gating
     * change, the profiler switch). The Gpu wakes a parked SM
     * whose bit is set.
     */
    std::uint64_t wakeMask = 0;
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

    /**
     * @param clock the clock, quota version and wake mask this SM
     *        shares with its Gpu; null gives the SM its own
     */
    SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem,
           std::shared_ptr<GpuClock> clock = nullptr);

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
     * @param next_event when non-null, receives on a cycle that
     *        issued nothing, or that issued and left no warp ready,
     *        the earliest cycle > @p now at which this SM might do
     *        real work: issue, process a wake/drain/MSHR release, or
     *        change any idle-warp sampling input (cycleNever: inert
     *        until external input -- a dispatch or a quota change --
     *        arrives). Untouched when the SM issued and a warp is
     *        still ready: the next cycle may issue.
     *
     * This bound is the event engine's only source of "when does
     * this SM next need the clock". The contract behind its
     * bit-identity claim: if cycle(now) yields X, then
     * running cycle() for every cycle in [now + 1, X) -- with no
     * external mutation in between (each one sets this SM's
     * GpuClock::wakeMask bit) -- would change nothing except the
     * pure-function-of-time counters that settle() applies for a
     * parked span (cycles, epochCycles_, gated cycles, attribution,
     * idle-warp samples). Internal evolution -- wakes, drains, MSHR
     * releases -- is what the bound accounts for, and other SMs'
     * interconnect traffic can only delay a store-throttle unblock.
     * The schedulers' greedy hints need nothing: a hint holds only
     * on the cycle right after its issue, and a cycle that leaves
     * no warp ready hands back a bound beyond that cycle only when
     * the next one cannot issue.
     *
     * @return true if any scheduler issued an instruction and no
     *         bound was handed back
     */
    bool cycle(Cycle now, bool sample_iw,
               Cycle *next_event = nullptr);

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
    int totalResidentTbs() const;
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

    /**
     * Counters a parked span cannot move -- it retires nothing and
     * grants no quota -- so they read without settling: the
     * kernelStats() fields of the same names.
     */
    std::uint64_t
    threadInstrs(KernelId k) const
    {
        return kernels_[k].stats.threadInstrs;
    }
    std::uint64_t
    warpInstrs(KernelId k) const
    {
        return kernels_[k].stats.warpInstrs;
    }
    std::uint64_t
    quotaRefills(KernelId k) const
    {
        return kernels_[k].stats.quotaRefills;
    }
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

    /** Apply the owed span [settledTo_, clock_->now); see settle(). */
    void settleSpan();
    /** Set this SM's wake bit: an external mutation arrived. */
    void requestWake()
    {
        clock_->wakeMask |= std::uint64_t{1} << id_;
    }
    /** Count @p span gated cycles for the kernels in @p gated. */
    void addGatedCycles(std::uint32_t gated, Cycle span);
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
     * Apply the cycles this SM owes: those before clock_->now that
     * it was not stepped through (it was parked). They are one
     * inert span -- its cycles, gated cycles, attribution and the
     * idle-warp samples inside it. Every statistics reader and
     * every external mutator settles first, so no observer sees a
     * stale view and every input of the span is as the parking
     * cycle left it. Logically const: it only materializes
     * accounting the SM already owes.
     */
    void
    settle() const
    {
        if (clock_->now > settledTo_)
            const_cast<SmCore *>(this)->settleSpan();
    }

    /** Recompute every scheduler's age ranks (TB dispatch, free). */
    void rebuildAgeOrder();
    /** Recompute the issue view from its inputs; clears viewDirty_. */
    void rebuildView();
    /** The EWS-allowed kernel mask, rebuilding a stale view first. */
    std::uint32_t allowedKernels()
    {
        if (viewDirty_)
            rebuildView();
        return viewAllowed_;
    }
    /** Change @p kc's MSHR count, invalidating the view on a flip. */
    void adjustMshrHeld(KernelCtx &kc, int delta);
    bool storeThrottled(Cycle now) const;
    void processDrains(Cycle now);
    void clearSchedBits(int warp_slot);
    void refreshInstrMasks(int warp_slot);
    void generateNext(Warp &w, const KernelRun &run);
    void issueWarp(int warp_slot, Cycle now);
    /** Retire the warp's instruction (ready again at @p ready_at),
     *  then finish the warp or fetch its next instruction. */
    void retireInstr(int warp_slot, Cycle ready_at, Cycle now);
    void finishWarp(int warp_slot);
    void freeTb(int tb_slot, TbExit exit);
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

    MemSystem *mem_;
    /**
     * Shared with the Gpu: the clock settle() reads, the quota
     * version bumped on every input change of allQuotasExhausted(),
     * and the wake mask every external mutator marks.
     */
    std::shared_ptr<GpuClock> clock_;
    std::vector<const KernelRun *> runs_;
    std::array<KernelCtx, maxKernels> kernels_;
    std::vector<Warp> warps_;
    std::vector<TbSlot> tbs_;
    std::vector<SchedulerState> scheds_;
    /** Per scheduler s: the slots it owns, slot % numScheds_ == s. */
    std::vector<std::uint64_t> schedSel_;

    // Warp sets, one bit per warp slot. The fields every cycle
    // reads come first; kernelMask_ is read only when the issue view
    // is rebuilt, by attribution and by idle-warp sampling.
    std::uint64_t ready_ = 0; //!< slots with an issuable warp
    /**
     * Class of each Live warp's next instruction: slots whose next
     * instruction is a global load / store. Set whenever a warp
     * decodes its next instruction, cleared only when the warp stops
     * being Live (finish, preemption, free) -- not on issue, so a
     * waiting warp keeps its bits. Every reader ANDs these masks
     * with ready_ (candidate masking, the blocked-candidate bound,
     * the attribution snapshot, idle-warp sampling), so bits of
     * waiting slots never change a result.
     */
    std::uint64_t loadMask_ = 0;
    std::uint64_t storeMask_ = 0;
    /**
     * Issue view (rebuildView): slots of kernels allowed by EWS
     * quota gating, and slots of kernels at their MSHR cap.
     */
    std::uint64_t allowMask_ = 0;
    std::uint64_t mshrBlock_ = 0;
    /** Slots belonging to each kernel (for EWS quota gating). */
    std::array<std::uint64_t, maxKernels> kernelMask_{};
    /** First scheduler of cycle rotAt_ (see cycle()). */
    Cycle rotAt_ = 0;
    int rotFirst_ = 0;

    // resources
    int threadsUsed_ = 0;
    int regsUsed_ = 0;
    int smemUsed_ = 0;
    int tbSlotsUsed_ = 0;

    /**
     * Wakes, by warp slot: every Live warp that is not ready has
     * exactly one, at the cycle its next instruction may issue, and
     * no other slot has one (preemption removes a waiting warp's).
     * cycle() ORs the slots due now into ready_. The 512-cycle
     * horizon holds L2 hits; DRAM waits under queueing go far.
     */
    DueWheel<512> wakes_;

    // Issue view: the per-cycle arbitration masks, derived from the
    // quotas, gating switch, residency, kernel slot masks and MSHR
    // counts (allowMask_ / mshrBlock_ hold the per-slot part). Every
    // event that changes one of those inputs sets viewDirty_, and
    // cycle() rebuilds the view at its start only then: kernel
    // binding, TB dispatch and free, quota set/add, gating toggle, a
    // quota crossing <= 0 in retireInstr, and an MSHR count crossing
    // the per-kernel cap. While viewDirty_ is false the view equals
    // a fresh recomputation.
    std::uint32_t viewAllowed_ = 0; //!< EWS-allowed kernels
    /** Quota-gated kernels with resident TBs (charged gatedCycles). */
    std::uint32_t viewGated_ = 0;
    int viewMshrCap_ = 0; //!< per-kernel MSHR cap at the last rebuild
    bool viewDirty_ = true;

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
     * Attribution cache for parked cycles: the category of each
     * kernel on the first inert cycle, written by the most recent
     * cycle() that handed back a bound (a no-issue cycle classifies
     * itself; an issuing one that left no warp ready classifies the
     * empty cycle after it). Valid for the whole span settle()
     * applies, because the Gpu parks an SM only after such a cycle
     * and every external mutation settles first, so the classified
     * state is frozen until settlement.
     */
    std::array<CycleCat, maxKernels> inertClass_{};
    /**
     * The interconnect store-throttle flag of the most recent
     * cycle() that computed a bound: the value every idle-warp
     * sample of a parked span reads (exact; see DESIGN.md section
     * 11, "Parked SMs"). Unread after an issuing cycle, which
     * leaves no warp ready to sample.
     */
    bool parkStoreBlocked_ = false;
    Cycle epochCycles_ = 0; //!< cycles since last sample reset
    /** First cycle not yet accounted; see settle(). */
    Cycle settledTo_ = 0;

    SmStats stats_;
    TbEventFn tbEvent_;
};

} // namespace gqos

#endif // GQOS_SM_SM_CORE_HH
