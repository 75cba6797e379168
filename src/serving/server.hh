/**
 * @file
 * Online serving driver.
 *
 * ServingDriver turns the batch simulator into a long-running
 * multi-tenant server: each tenant binds one kernel slot of the Gpu
 * in manual-launch mode, an open-loop arrival stream feeds the
 * admission controller, and admitted requests become grids started
 * with Gpu::startGrid() as each tenant's previous grid completes
 * (one in-flight grid per tenant — requests of one tenant are
 * serialized, tenants run concurrently under the sharing policy).
 *
 * The control loop advances the machine through one Simulation
 * (engine/simulation.hh) in short ticks, pinned to exact arrival cycles, so
 * admission decisions happen at deterministic simulated times and
 * the whole run — trace records included — is byte-identical across
 * reruns with the same seed. Completion latencies are exact even at
 * a coarse tick: the Gpu records the completion cycle of every
 * manual grid as it happens.
 *
 * Robustness: per-tenant StallDetector heartbeats trip a structured
 * `tenant_stalled` trace record and a clean shutdown; the engine's
 * own watchdog covers whole-machine wedges; a drain-grace hard end
 * bounds the run even when arrivals outpace service forever, with
 * residual queued requests accounted as shutdown drops.
 */

#ifndef GQOS_SERVING_SERVER_HH
#define GQOS_SERVING_SERVER_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/result.hh"
#include "engine/sim_engine.hh"
#include "serving/arrival.hh"
#include "serving/tenant.hh"
#include "telemetry/cycle_accounting.hh"

namespace gqos
{

class MetricsRegistry;
class TraceSink;

/** Knobs of one serving run. */
struct ServingOptions
{
    std::string configName = "default";
    /** Sharing policy ("serving" = rollover quota, static TB map). */
    std::string policy = "serving";
    EngineKind engine = EngineKind::Event;
    /** Control-loop tick, cycles (arrival cycles are always exact). */
    Cycle tick = 256;
    /** Extra cycles after the last arrival before the hard stop. */
    Cycle drainGrace = 150000;
    /**
     * Per-tenant stall watchdog window in milliseconds of simulated
     * time (converted via the core clock); 0 selects the default
     * window of 500k cycles.
     */
    double watchdogMs = 0.0;
    /** Case label stamped on every trace record. */
    std::string caseKey;
    /** Optional qos.* and engine.* counters; may be null. */
    MetricsRegistry *metrics = nullptr;
};

/** Per-tenant outcome of a serving run. */
struct TenantServingStats
{
    std::string name;
    QosClass qosClass = QosClass::Elastic;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    std::uint64_t sloMet = 0;
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t rejectedShed = 0;
    std::uint64_t rejectedProjected = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t droppedAtShutdown = 0;
    std::uint64_t maxQueueDepth = 0;
    Cycle p50Latency = 0;  //!< launch-to-completion, completed reqs
    Cycle p99Latency = 0;
    Cycle maxLatency = 0;
    /** Fraction of *arrivals* completed within SLO. */
    double sloAttainment = 0.0;
    /** SLO-met completions per million simulated cycles. */
    double goodput = 0.0;
    bool stalled = false;
};

/** Whole-run outcome. */
struct ServingReport
{
    std::vector<TenantServingStats> tenants;
    Cycle endCycle = 0;
    int finalLevel = 0;
    std::uint64_t levelChanges = 0;
    bool engineStalled = false;
    bool anyTenantStalled = false;
    /** True when the run drained every queue before the hard end. */
    bool drained = false;
    /**
     * Per-tenant (kernel-slot) cycle attribution summed over SMs,
     * index-aligned with `tenants`; empty when the profiler was off
     * (no metrics registry attached).
     */
    std::vector<CycleBreakdown> cycleBreakdown;
};

class ServingDriver
{
  public:
    /**
     * Build a driver: validates tenants and options, constructs the
     * request-sized kernels and measures each tenant's isolated IPC
     * baseline (used to translate goal fractions into the absolute
     * IPC goals the sharing policy consumes).
     */
    static Result<std::unique_ptr<ServingDriver>> make(
        std::vector<TenantSpec> tenants, ServingOptions opts);

    /**
     * Serve @p arrivals to completion (single use: one run per
     * driver). @p sink may be null; records are labelled with
     * options().caseKey.
     */
    Result<ServingReport> run(const std::vector<Arrival> &arrivals,
                              TraceSink *sink);

    /**
     * Test hook: make @p tenant's watchdog heartbeat report frozen
     * progress with live work, so the stall path can be exercised
     * deterministically. Call before run().
     */
    void forceStallForTest(int tenant);

    const ServingOptions &options() const { return opts_; }
    const GpuConfig &config() const { return cfg_; }
    int numTenants() const
    {
        return static_cast<int>(tenants_.size());
    }
    double isolatedIpc(int tenant) const
    {
        return isolatedIpc_[tenant];
    }

  private:
    ServingDriver(std::vector<TenantSpec> tenants,
                  ServingOptions opts, GpuConfig cfg);

    ServingOptions opts_;
    GpuConfig cfg_;
    std::vector<TenantSpec> tenants_;
    std::vector<KernelDesc> descs_;
    std::vector<double> isolatedIpc_;
    std::vector<bool> forceStall_;
    bool ran_ = false;
};

} // namespace gqos

#endif // GQOS_SERVING_SERVER_HH
