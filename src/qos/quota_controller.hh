/**
 * @file
 * Quota-based dynamic resource management (Sections 3.3 - 3.5).
 *
 * Every epoch, each kernel receives an instruction quota derived
 * from its IPC goal; the Enhanced Warp Scheduler stops issuing from
 * kernels whose per-SM quota counter is exhausted. This controller
 * implements all quota-allocation schemes evaluated in the paper:
 *
 *  - Naive        quota = IPCgoal x Tepoch, unused quota discarded
 *  - +History     quota scaled by alpha = max(goal/history, 1)
 *  - Elastic      a new epoch starts as soon as every kernel has
 *                 consumed its quota
 *  - Rollover     unused quota of QoS kernels carries into the next
 *                 epoch
 *
 * plus the non-QoS quota search of Section 3.5 and the
 * "Rollover-Time" CPU-style prioritization used as a baseline in
 * Section 4.5 (non-QoS kernels blocked until QoS quotas drain).
 */

#ifndef GQOS_QOS_QUOTA_CONTROLLER_HH
#define GQOS_QOS_QUOTA_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "common/metrics.hh"
#include "gpu/gpu.hh"
#include "qos/qos_spec.hh"

namespace gqos
{

class TraceSink;

/** Quota allocation scheme (Section 3.4). */
enum class QuotaScheme : std::uint8_t
{
    Naive,
    Elastic,
    Rollover
};

/** Display name of a scheme. */
const char *toString(QuotaScheme scheme);

/** Tuning options of the quota controller. */
struct QuotaOptions
{
    QuotaScheme scheme = QuotaScheme::Rollover;
    /** History-based quota adjustment (Section 3.4.2). */
    bool historyAdjust = true;
    /**
     * Time-multiplexed prioritization (Rollover-Time, Section 4.5):
     * non-QoS kernels are blocked each epoch until all QoS kernels
     * exhausted their quotas.
     */
    bool timeMux = false;
};

/**
 * Per-epoch quota allocation and mid-epoch refill logic.
 *
 * Owns the per-kernel performance bookkeeping (epoch IPC, lifetime
 * IPC, alpha) that the static resource allocator also consumes.
 */
class QuotaController
{
  public:
    /** Initial artificial IPCepoch of non-QoS kernels (Section 3.5). */
    static constexpr double nonQosInitialIpc = 1.0;
    /**
     * Internal goal headroom: quotas target goal x margin so that
     * workload fluctuation (phases, grid tails) cannot drag the
     * achieved average just below the goal. The paper's Rollover
     * lands 2.8% above its goals on average (Figure 9), which this
     * margin reproduces.
     */
    static constexpr double goalMargin = 1.02;
    /**
     * Epochs excluded from the IPChistory baseline while TB dispatch
     * and caches settle. The paper's 200-epoch runs make the settle
     * window negligible; at a scaled-down window the history metric
     * must not be dominated by the fill transient.
     */
    static constexpr int settleEpochs = 2;

    /**
     * @param specs QoS goals by KernelId
     * @param opts scheme selection and tuning
     * @param epoch_length epoch in cycles (Table 1: 10K)
     */
    QuotaController(std::vector<QosSpec> specs, QuotaOptions opts,
                    Cycle epoch_length);

    /**
     * Attach telemetry consumers (either may be null); call before
     * onLaunch(). The trace sink receives one EpochKernelRecord per
     * (epoch, kernel) and one EpochMemRecord per epoch, emitted at
     * the epoch boundary for the epoch that just ended. Sinks only
     * observe — simulation results do not depend on attachment.
     */
    void attachTelemetry(TraceSink *trace, MetricsRegistry *metrics);

    /**
     * Emit trace records for the trailing partial epoch (run end).
     * Safe to call multiple times and without a sink attached; the
     * summed instruction deltas of all emitted records then equal
     * Gpu::threadInstrs() per kernel.
     */
    void finishTrace(Gpu &gpu);

    /** Enable gating and allocate the first epoch's quotas. */
    void onLaunch(Gpu &gpu);

    /**
     * Per-cycle hook: epoch boundaries, elastic restarts, mid-epoch
     * non-QoS refills and Rollover-Time release. Returns gpu.now()
     * if any of them acted, else the next forced epoch boundary
     * (the SharingPolicy::onCycle() contract). Exact while the
     * machine is idle: every mid-epoch condition depends only on
     * quota counters, residency and instruction counts, which are
     * frozen across an inert span.
     */
    Cycle onCycle(Gpu &gpu);

    // ---- bookkeeping read by the static allocator & reports ----

    /** Lifetime (run-so-far) IPC of kernel @p k. */
    double ipcHistory(KernelId k) const;

    /** IPC of kernel @p k over the last completed epoch. */
    double ipcEpoch(KernelId k) const;

    /** History-adjustment factor of kernel @p k (1 if disabled). */
    double alpha(KernelId k) const;

    /** Artificial IPC goal of a non-QoS kernel (Section 3.5). */
    double nonQosGoal(KernelId k) const;

    /**
     * Quota counter of kernel @p k on SM @p sm at the end of the
     * last completed epoch. A non-positive value means the kernel
     * was quota-throttled there (it consumed everything it was
     * given); a positive value means it was capability-limited.
     */
    double lastLeftover(SmId sm, KernelId k) const;

    /** Completed epoch count. */
    int epochIndex() const { return epochIndex_; }

    const std::vector<QosSpec> &specs() const { return specs_; }
    const QuotaOptions &options() const { return opts_; }

  private:
    void beginEpoch(Gpu &gpu, bool initial);
    double historyAt(KernelId k, Cycle now) const;
    void distributeQuota(Gpu &gpu, KernelId k, double total_quota);
    bool qosQuotasExhausted(const SmCore &sm) const;
    bool elasticReady(const Gpu &gpu, Cycle now);
    void emitEpochTrace(Gpu &gpu, bool final_partial);

    std::vector<QosSpec> specs_;
    QuotaOptions opts_;
    Cycle epochLength_;

    std::vector<int> qosIds_;
    std::vector<int> nonQosIds_;

    Cycle epochStart_ = 0;
    int epochIndex_ = 0;
    Cycle settleCycle_ = 0;
    std::vector<std::uint64_t> instrAtSettle_;
    bool settled_ = false;
    std::vector<std::uint64_t> instrAtEpochStart_;
    std::vector<double> ipcEpoch_;
    std::vector<double> epochTotalQuota_;
    std::vector<double> alpha_;
    std::vector<double> nonQosGoal_;
    std::vector<std::uint64_t> instrTotal_;

    /** Per-SM, per-kernel share of the epoch quota (for refills). */
    std::vector<std::vector<double>> localQuota_;

    /** Counter values observed at the last epoch boundary. */
    std::vector<std::vector<double>> lastLeftover_;

    /** Rollover-Time: non-QoS quota stashed until QoS drains. */
    std::vector<std::vector<double>> pendingRelease_;
    std::vector<bool> released_;

    // Mid-epoch scan caches: the Gpu::quotaVersion() at which a scan
    // last ran and found nothing to do (quotaVersionNone: scan next
    // time). Between epoch starts each scan is a pure function of
    // the SMs' quotas and residency and of this controller's epoch
    // state, so it stays a no-op while the version holds.
    std::uint64_t qosBusyAt_ = quotaVersionNone; //!< elastic: QoS quota left
    std::uint64_t releaseIdleAt_ = quotaVersionNone;
    std::uint64_t refillIdleAt_ = quotaVersionNone;

    // ---- telemetry (pure observers; null = disabled) ----

    TraceSink *trace_ = nullptr;
    MetricsRegistry::Counter *epochsCtr_ = nullptr;
    MetricsRegistry::Counter *elasticRestartsCtr_ = nullptr;
    MetricsRegistry::Counter *refillGrantsCtr_ = nullptr;

    /** Snapshots diffed per epoch; maintained only when tracing. */
    std::vector<std::uint64_t> traceCompletedAt_;
    std::vector<std::uint64_t> tracePreemptedAt_;
    std::vector<std::uint64_t> traceRefillsAt_;
    struct MemCounters
    {
        std::uint64_t l1Accesses = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t dramAccesses = 0;
        std::uint64_t contextLines = 0;
    } traceMemAt_;
    bool traceFinished_ = false;
};

} // namespace gqos

#endif // GQOS_QOS_QUOTA_CONTROLLER_HH
