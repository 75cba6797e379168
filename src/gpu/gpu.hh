/**
 * @file
 * Top-level GPU: SM array, memory system and the enhanced TB
 * scheduler (Figure 3 of the paper).
 *
 * The TB scheduler maintains a per-(SM, kernel) *target* number of
 * resident TBs. Sharing policies (fine-grained QoS, Spart, ...)
 * steer execution exclusively by moving these targets and by setting
 * quota counters; the dispatcher converges the machine toward the
 * targets by dispatching TBs where resident < target and starting
 * partial context switches where resident > target.
 */

#ifndef GQOS_GPU_GPU_HH
#define GQOS_GPU_GPU_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/kernel_desc.hh"
#include "arch/types.hh"
#include "common/due_wheel.hh"
#include "mem/mem_system.hh"
#include "sm/kernel_run.hh"
#include "sm/sm_core.hh"

namespace gqos
{

/** Per-kernel dispatch bookkeeping and lifetime statistics. */
struct KernelDispatchState
{
    int remainingInLaunch = 0; //!< TBs not yet dispatched this launch
    int liveTbs = 0;           //!< dispatched, not yet completed
    std::uint64_t launches = 0;
    std::uint64_t completedTbs = 0;
    std::uint64_t preemptedTbs = 0;
    /**
     * Launch control (serving mode): when set, a finished grid does
     * NOT relaunch automatically; the owner starts the next grid
     * explicitly with Gpu::startGrid(). The batch harness leaves
     * this off and keeps the paper's relaunch-until-window-ends
     * behaviour.
     */
    bool manualLaunch = false;
    std::uint64_t gridsCompleted = 0;  //!< finished grids (manual)
    Cycle lastGridCompletedAt = 0;     //!< cycle of the last finish
};

/**
 * A quota version no Gpu reaches: what a policy's scan cache holds
 * when its next scan must run (see Gpu::quotaVersion()).
 */
constexpr std::uint64_t quotaVersionNone = ~std::uint64_t{0};

/**
 * The simulated GPU.
 */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg);

    /**
     * Bind the co-running kernels. Index in @p descs becomes the
     * KernelId. Descriptors must outlive the Gpu. Kernels relaunch
     * automatically when a grid completes (the paper re-executes
     * benchmarks that finish before the measurement window ends).
     */
    void launch(const std::vector<const KernelDesc *> &descs);

    /**
     * Advance the machine one core cycle.
     *
     * With @p event_aware set (the event engine's stepping mode),
     * an SM whose SmCore::cycle() hands back a bound beyond the
     * next cycle -- it issued nothing, or issued and left no lane
     * ready -- is *parked*: step() walks only the hot SMs, in
     * ascending SM order, until the bound arrives or an external
     * mutation sets the SM's wake bit. The step wakes the SMs due
     * this cycle by taking them from its due wheel (DESIGN.md
     * section 11, "Due wheel"). A parked SM owes the cycles it
     * missed and settles them in one span when next observed,
     * mutated or stepped. Only event-aware steps park the
     * SMs that nextEventAt() and skipTo() rely on; a reference
     * step wakes every SM. Results are bit-identical either way --
     * a parked SM is by construction in an inert cycle -- the flag
     * only trades per-SM pipeline walks for one settle per span.
     */
    void step(bool event_aware = false);

    /** Current cycle (number of completed steps). */
    Cycle now() const { return now_; }

    // ---- event-engine control points ----

    /**
     * Earliest cycle >= now() at which the machine might do real
     * work: the earliest due cycle of the parked SMs, read off the
     * due wheel (its first occupied slot, or its far minimum).
     * Returns now() -- step this cycle -- when the TB dispatcher is
     * dirty, some SM is hot (never parked, woken, or its bound has
     * arrived) or a parked SM's wake bit is set; cycleNever when the
     * machine is fully inert (e.g. nothing resident and no TB
     * targets to converge toward).
     */
    Cycle nextEventAt() const;

    /**
     * Fast-forward to cycle @p target (> now()). Only valid when
     * nextEventAt() >= @p target: every SM is then parked and owes
     * the span, which it settles when next observed; results are
     * bit-identical to calling step() target - now() times. Touches
     * no SM.
     */
    void skipTo(Cycle target);

    // ---- policy control surface ----

    /** Set the desired resident-TB count of kernel @p k on @p sm. */
    void setTbTarget(SmId sm, KernelId k, int target);

    int tbTarget(SmId sm, KernelId k) const;
    int residentTbs(SmId sm, KernelId k) const;

    /** Total resident TBs of kernel @p k across the GPU. */
    int totalResidentTbs(KernelId k) const;

    /** Enable/disable EWS quota gating on every SM. */
    void setQuotaGatingAll(bool on);

    /**
     * GPU-wide quota version: the counter every SM bumps when an
     * input of its SmCore::allQuotasExhausted() changes -- kernel
     * binding, TB dispatch and free (completion or preemption),
     * setQuota, addQuota, setQuotaGating, and a quota crossing from
     * > 0 to <= 0 as an instruction retires -- and on nothing else.
     * A mid-epoch scan over SM quotas and residency that acted on
     * nothing at version V acts on nothing again until the version
     * moves.
     */
    std::uint64_t quotaVersion() const { return clock_->quotaVersion; }

    // ---- cycle attribution / timeline observability ----

    /**
     * Enable the cycle-attribution profiler on every SM. Must be
     * called before the first step() (see
     * SmCore::setCycleAccounting).
     */
    void setCycleAccounting(bool on);
    bool cycleAccounting() const { return accounting_; }

    /** Attribution of kernel @p k summed over all SMs. */
    CycleBreakdown cycleBreakdown(KernelId k) const;

    /**
     * Kernel-occupancy slice callback for the timeline exporter:
     * fired as (sm, kernel, start, end) whenever kernel @p k's
     * resident-TB count on an SM returns to zero, closing the
     * occupancy span that opened when it first became resident.
     * Slices still open at the end of a run are emitted by
     * closeOpenSmSlices().
     */
    using SmSliceFn =
        std::function<void(SmId, KernelId, Cycle, Cycle)>;
    void setSmSliceCallback(SmSliceFn fn);

    /** Emit every still-open occupancy slice with end = now(). */
    void closeOpenSmSlices();

    // ---- launch control (serving mode) ----

    /**
     * Put kernel @p k under manual launch control: the pending grid
     * is cancelled (nothing of it may have been dispatched yet) and
     * finished grids stop relaunching automatically. Call right
     * after launch(), before the first cycle; the serving driver
     * then feeds work in with startGrid() as requests are admitted.
     */
    void setManualLaunch(KernelId k);

    /**
     * Begin a new grid of kernel @p k (manual-launch kernels only;
     * the previous grid must have fully completed). The TB
     * dispatcher starts placing its TBs on the next step().
     */
    void startGrid(KernelId k);

    /** TBs of @p k's current grid still dispatched or resident. */
    bool gridActive(KernelId k) const;

    /** Grids of @p k fully completed (manual-launch mode). */
    std::uint64_t gridsCompleted(KernelId k) const;

    /**
     * Cycle at which @p k's most recent grid completed (valid once
     * gridsCompleted(k) > 0). Exact even when the caller only polls
     * on a coarse control tick.
     */
    Cycle lastGridCompletedAt(KernelId k) const;

    // ---- component access ----

    SmCore &sm(SmId id);
    const SmCore &sm(SmId id) const;
    int numSms() const { return static_cast<int>(sms_.size()); }

    MemSystem &mem() { return *mem_; }
    const MemSystem &mem() const { return *mem_; }

    const GpuConfig &config() const { return cfg_; }

    int numKernels() const { return static_cast<int>(runs_.size()); }
    const KernelDesc &kernelDesc(KernelId k) const;

    // ---- metrics ----

    /** Thread-level instructions of @p k retired so far (all SMs). */
    std::uint64_t threadInstrs(KernelId k) const;

    /** Warp-level instructions of @p k retired so far (all SMs). */
    std::uint64_t warpInstrs(KernelId k) const;

    const KernelDispatchState &dispatchState(KernelId k) const;

    /** GPU-wide IPC of kernel @p k over the whole run so far. */
    double ipc(KernelId k) const;

    /** Mean idle-warp sample of @p k over all SMs (this epoch). */
    double iwAverage(KernelId k) const;

    /** Mean EWS-gated cycle fraction of @p k over all SMs. */
    double gatedFraction(KernelId k) const;

    /** Mid-epoch quota additions of @p k across SMs (lifetime). */
    std::uint64_t quotaRefills(KernelId k) const;

    /** Sum of @p k's per-SM TB targets. */
    int totalTbTarget(KernelId k) const;

    /** Cycles of per-SM pipeline work elided by event-aware steps:
     *  the parked SMs of each stepped cycle, summed. */
    std::uint64_t
    smSkippedCycles() const
    {
        return steps_ * sms_.size() - smSteps_;
    }

  private:
    /** @return true if the TB dispatcher acted (keeps it dirty). */
    bool dispatchCycle();
    const KernelRun &kernelRun(KernelId k) const;
    void onTbEvent(SmId sm, KernelId k, TbExit exit);

    GpuConfig cfg_;
    std::unique_ptr<MemSystem> mem_;
    /** Clock, quota version and wake mask shared with the SMs. */
    std::shared_ptr<GpuClock> clock_;
    std::vector<SmCore> sms_;
    std::vector<KernelRun> runs_;
    std::vector<KernelDispatchState> dispatch_;
    std::vector<std::vector<int>> tbTargets_; //!< [sm][kernel]
    std::uint64_t tbSeq_ = 0;
    Cycle now_ = 0;
    /** Next idle-warp sampling cycle (a multiple of the interval). */
    Cycle nextSample_ = 0;
    /**
     * TB-dispatcher dirty flag: set by every state change that can
     * enable a dispatch or preemption (launch, target move, TB
     * completion/eviction), cleared after a dispatcher pass that
     * did nothing. While set, nextEventAt() returns now(); while
     * clear, step() skips the dispatcher pass -- a no-op pass stays
     * a no-op until one of those events re-arms the flag.
     */
    bool dispatchDirty_ = true;
    /** Bit s set for every SM of the machine. */
    std::uint64_t allSms_;
    /**
     * SMs step() walks; the others are parked: a parked SM is proven
     * inert for every cycle before its due until its wake bit is set.
     */
    std::uint64_t hot_;
    /**
     * Parked SMs by due cycle. A park mostly waits out an ALU
     * latency or a wake a few cycles off, so a one-word ring holds
     * almost all of them.
     */
    DueWheel<64> due_;
    std::uint64_t steps_ = 0;   //!< step() calls
    std::uint64_t smSteps_ = 0; //!< SmCore::cycle() calls they made
    bool accounting_ = false;
    SmSliceFn smSlice_;
    /** Open-slice start per [sm][kernel]; cycleNever = closed. */
    std::vector<std::vector<Cycle>> sliceStart_;
};

} // namespace gqos

#endif // GQOS_GPU_GPU_HH
