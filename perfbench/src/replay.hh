/**
 * @file
 * Replays of simulated work driven by the benchmark itself through
 * the simulator's public layers (Gpu, makePolicy, SimEngine), so the
 * per-layer counters and host times of one simulation can be read
 * from outside the harness.
 *
 *  - replayCase() re-runs one sweep case exactly as Runner::run
 *    simulates it; its results must equal the harness's bit for bit.
 *  - replayServing() feeds an arrival stream to manual-launch grids
 *    (one in-flight grid per tenant, FIFO backlog, no admission
 *    control). It is not ServingDriver, which keeps its engine
 *    private, so this is the closest outside view of the serving
 *    path's engine behaviour.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "common/result.hh"
#include "engine/sim_engine.hh"
#include "harness/result_cache.hh"
#include "harness/sweep.hh"
#include "mem/mem_system.hh"
#include "serving/server.hh"
#include "sm/sm_core.hh"

namespace gqos
{
class MetricsRegistry;
}

namespace perfbench
{

/** How a replay advances the machine. */
enum class ReplayMode
{
    /** SimEngine::runUntil on the event engine. */
    Engine,
    /** `policy.onCycle(gpu); gpu.step();` per cycle, each call timed. */
    PerCycle
};

struct ReplayOptions
{
    ReplayMode mode = ReplayMode::Engine;
    /** Gpu::setCycleAccounting (the cycle-attribution profiler). */
    bool accounting = false;
    /** Receives the policy's qos.* counters (may be null). */
    gqos::MetricsRegistry *metrics = nullptr;
};

/** What one replay produced and what it cost. */
struct ReplayStats
{
    /** The numbers Runner::run would cache for the same case. */
    gqos::CachedCase result;
    std::uint64_t cycles = 0;     //!< simulated cycles
    double advanceSec = 0.0;      //!< host time advancing the machine
    gqos::EngineStats engine;     //!< Engine mode only
    std::uint64_t smSkipped = 0;  //!< Gpu::smSkippedCycles
    int numSms = 0;
    double stepSec = 0.0;         //!< PerCycle mode: Gpu::step
    double onCycleSec = 0.0;      //!< PerCycle mode: policy.onCycle
    gqos::SmStats sm;             //!< summed over SMs
    gqos::MemSystemStats mem;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    double gatedFraction = 0.0;   //!< mean over kernels
    bool stalled = false;         //!< engine watchdog fired
};

/**
 * Re-simulate sweep case @p c on @p cfg over @p cycles with the
 * harness's warm-up rule. @p isolated_ipc holds each kernel's
 * isolated IPC (used for the QoS goals, as the harness does).
 */
gqos::Result<ReplayStats> replayCase(
    const gqos::GpuConfig &cfg, gqos::Cycle cycles,
    gqos::Cycle warmup_cycles, const gqos::SweepCase &c,
    const std::vector<double> &isolated_ipc,
    const ReplayOptions &opts);

/** Serve @p arrivals on manual-launch grids of @p tenants. */
gqos::Result<ReplayStats> replayServing(
    const std::vector<gqos::TenantSpec> &tenants,
    const std::vector<double> &isolated_ipc,
    const std::vector<gqos::Arrival> &arrivals,
    const gqos::ServingOptions &serving, const ReplayOptions &opts);

/** True when two cached results are identical bit for bit. */
bool sameBits(const gqos::CachedCase &a, const gqos::CachedCase &b);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
