/**
 * @file
 * Event-aware stepping engine.
 *
 * Replaces the harness's per-cycle `loop { policy.onCycle(gpu);
 * gpu.step(); }` contract with control points: each layer reports
 * the earliest cycle at which it next needs the clock -- the SMs
 * through the bound each no-issue SmCore::cycle() hands back,
 * cached per SM by Gpu::step(true) and combined by
 * Gpu::nextEventAt(); the policy through
 * SharingPolicy::nextControlAt() -- and the engine fast-forwards
 * through the provably inert span in between with
 * Gpu::skipTo(), which batch-accounts idle cycles, epoch cycle
 * counters, gated-cycle counters and idle-warp samples.
 *
 * Bit-identity invariant: a span [now, target) is skipped only if
 * every cycle in it is provably a no-op -- no SM would issue, wake,
 * drain or release an MSHR; the TB dispatcher would not act; and
 * the policy declares no control point. All machine state is
 * therefore frozen across the span, which is what makes the
 * per-layer checks compositional. The per-cycle reference loop is
 * retained behind EngineKind::Reference for differential testing;
 * both engines produce byte-identical results and share the
 * harness result cache.
 *
 * The watchdog stride is preserved exactly: both engines observe
 * the stall detector after executing every cycle that is a
 * multiple of watchdogStride, with identical sample values (all
 * observed quantities are frozen across skipped spans).
 */

#ifndef GQOS_ENGINE_SIM_ENGINE_HH
#define GQOS_ENGINE_SIM_ENGINE_HH

#include <cstdint>
#include <string>

#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

class Gpu;
class MetricsRegistry;
class SharingPolicy;

/**
 * Detects a simulation that stopped retiring instructions while
 * warps are still live. Feed samples of (cycle, total retired
 * instructions, any-live flag); observe() reports a stall once no
 * instruction retired across a full window while work existed the
 * whole time.
 */
class StallDetector
{
  public:
    explicit StallDetector(Cycle window) : window_(window) {}

    /** Record a sample; true once the stall condition holds. */
    bool
    observe(Cycle now, std::uint64_t instrs, bool anyLive)
    {
        if (!primed_ || instrs != lastInstrs_ || !anyLive) {
            primed_ = true;
            lastInstrs_ = instrs;
            lastAdvance_ = now;
            return false;
        }
        return now - lastAdvance_ >= window_;
    }

    Cycle window() const { return window_; }

  private:
    Cycle window_;
    Cycle lastAdvance_ = 0;
    std::uint64_t lastInstrs_ = 0;
    bool primed_ = false;
};

/** Stepping-engine selection (--engine=event|reference). */
enum class EngineKind : std::uint8_t
{
    Event,     //!< event-aware skipping engine (default)
    Reference  //!< per-cycle loop kept for differential testing
};

/** Display / report name of an engine kind. */
const char *toString(EngineKind kind);

/** Parse an --engine value ("event" or "reference"). */
Result<EngineKind> parseEngineKind(const std::string &name);

/** Counters describing how an engine spent simulated time. */
struct EngineStats
{
    std::uint64_t steppedCycles = 0; //!< cycles executed one by one
    std::uint64_t skippedCycles = 0; //!< cycles batch-accounted
    std::uint64_t skips = 0;         //!< skipTo() spans taken
    /**
     * Cycles stepped solely because the policy declared a control
     * point while the machine itself was idle (epoch boundaries,
     * mid-epoch refill / elastic-restart conditions).
     */
    std::uint64_t controlPoints = 0;
};

/**
 * Drives one simulation: interleaves policy control with machine
 * cycles and samples the stall watchdog on a fixed stride.
 */
class SimEngine
{
  public:
    /** Watchdog sampling stride in cycles (both engines). */
    static constexpr Cycle watchdogStride = 1024;

    /** @param stall_window see StallDetector */
    SimEngine(EngineKind kind, Cycle stall_window);

    /**
     * Advance the simulation to cycle @p until. Resumable: calling
     * again with a larger bound continues seamlessly (the harness
     * runs [0, warmup) then [warmup, cycles)).
     * @return true if the stall watchdog fired (the simulation is
     *         aborted mid-flight; gpu.now() tells where)
     */
    bool runUntil(Gpu &gpu, SharingPolicy &policy, Cycle until);

    EngineKind kind() const { return kind_; }
    const EngineStats &stats() const { return stats_; }
    Cycle stallWindow() const { return watchdog_.window(); }

  private:
    bool observe(const Gpu &gpu);

    EngineKind kind_;
    StallDetector watchdog_;
    EngineStats stats_;
    Cycle nextObserveAt_ = 0;
    /**
     * Activity hint: skip checks cost about as much as one idle
     * SM cycle, so they are only attempted after a cycle with no
     * issue anywhere (a busy machine cannot be skipped anyway).
     * Purely a fast-path gate -- never affects results.
     */
    bool lastStepActive_ = true;
};

/**
 * Add how @p engine spent the simulated time of @p gpu to
 * @p metrics: engine.stepped_cycles, engine.skipped_cycles,
 * engine.control_points and engine.sm_skipped_cycles.
 */
void exportEngineCounters(const SimEngine &engine, const Gpu &gpu,
                          MetricsRegistry &metrics);

} // namespace gqos

#endif // GQOS_ENGINE_SIM_ENGINE_HH
