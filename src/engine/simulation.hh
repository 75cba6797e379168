/**
 * @file
 * One simulated run: the Gpu, its sharing policy, the stepping
 * engine and the run's observers, wired in one place. Batch cases
 * and baselines, serving runs and their baselines, and the SMK-fair
 * co-run all drive the machine through it; what to measure and when
 * to stop stay with the caller.
 */

#ifndef GQOS_ENGINE_SIMULATION_HH
#define GQOS_ENGINE_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "policy/sharing_policy.hh"
#include "telemetry/cycle_accounting.hh"
#include "telemetry/trace.hh"

namespace gqos
{

class MetricsRegistry;

/** Not movable: the Gpu's SM-slice callback points into it. */
class Simulation
{
  public:
    struct Setup
    {
        EngineKind engine = EngineKind::Event;
        Cycle stallWindow = 0; //!< see StallDetector
        /** Stamped on every trace record; named by a stall error. */
        std::string label;
        TraceSink *trace = nullptr;          //!< null = no tracing
        MetricsRegistry *metrics = nullptr;  //!< null = no counters
        bool accounting = false;   //!< cycle-attribution profiler
        bool manualLaunch = false; //!< every kernel (serving mode)
    };

    /**
     * Launch @p descs (which must outlive the run), attach the
     * labelled sink, SM-slice emitter and policy telemetry, and
     * call onLaunch().
     */
    Simulation(const GpuConfig &cfg,
               const std::vector<const KernelDesc *> &descs,
               std::unique_ptr<SharingPolicy> policy, Setup setup);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Advance to cycle @p until (resumable). A Stalled error names
     * the label, the cycle and the watchdog window; the machine
     * stays where the watchdog fired, and finish() may still run.
     */
    Result<void> runUntil(Cycle until);

    /**
     * onFinish(), close the open SM slices, and add the engine.*
     * counters to the metrics registry (if any).
     * @return per-kernel cycle attribution, conservation-checked
     *         per SM; empty without accounting
     */
    std::vector<CycleBreakdown> finish();

    Gpu &gpu() { return gpu_; }

    /** The labelled trace sink, or null when tracing is off. */
    TraceSink *trace() { return setup_.trace ? &labeled_ : nullptr; }

  private:
    Setup setup_;
    Gpu gpu_;
    std::unique_ptr<SharingPolicy> policy_;
    SimEngine engine_;
    CaseLabelingSink labeled_;
};

} // namespace gqos

#endif // GQOS_ENGINE_SIMULATION_HH
