/**
 * @file
 * Simulation implementation: run wiring and end-of-run export.
 */

#include "engine/simulation.hh"

#include "common/logging.hh"
#include "common/metrics.hh"

namespace gqos
{

Simulation::Simulation(const GpuConfig &cfg,
                       const std::vector<const KernelDesc *> &descs,
                       std::unique_ptr<SharingPolicy> policy,
                       Setup setup)
    : setup_(std::move(setup)), gpu_(cfg),
      policy_(std::move(policy)),
      engine_(setup_.engine, setup_.stallWindow),
      labeled_(setup_.trace, setup_.label)
{
    gpu_.launch(descs);
    if (setup_.manualLaunch) {
        for (KernelId k = 0; k < gpu_.numKernels(); ++k)
            gpu_.setManualLaunch(k);
    }
    // The profiler only counts: results are identical either way.
    if (setup_.accounting)
        gpu_.setCycleAccounting(true);
    if (setup_.trace) {
        gpu_.setSmSliceCallback(
            [this](SmId sm, KernelId k, Cycle start, Cycle end) {
                labeled_.onSmSlice({{}, sm, k, start, end});
            });
    }
    policy_->attachTelemetry(trace(), setup_.metrics);
    policy_->onLaunch(gpu_);
}

Result<void>
Simulation::runUntil(Cycle until)
{
    if (!engine_.runUntil(gpu_, *policy_, until))
        return {};
    return Error::format(
        ErrorCode::Stalled,
        "case '%s' retired no instruction for %llu cycles (at cycle "
        "%llu) with live warps; aborting the case",
        setup_.label.c_str(),
        static_cast<unsigned long long>(engine_.stallWindow()),
        static_cast<unsigned long long>(gpu_.now()));
}

std::vector<CycleBreakdown>
Simulation::finish()
{
    policy_->onFinish(gpu_);
    gpu_.closeOpenSmSlices();
    std::vector<CycleBreakdown> out;
    for (KernelId k = 0; setup_.accounting && k < gpu_.numKernels();
         ++k) {
        // Per (SM, kernel) the categories telescope exactly to the
        // SM's cycle count, whichever engine ran.
        for (int s = 0; s < gpu_.numSms(); ++s) {
            gqos_assert(gpu_.sm(s).cycleBreakdown(k).total() ==
                        gpu_.sm(s).stats().cycles);
        }
        out.push_back(gpu_.cycleBreakdown(k));
    }
    if (MetricsRegistry *metrics = setup_.metrics) {
        const EngineStats &st = engine_.stats();
        metrics->counter("engine.stepped_cycles").inc(st.steppedCycles);
        metrics->counter("engine.skipped_cycles").inc(st.skippedCycles);
        metrics->counter("engine.control_points").inc(st.controlPoints);
        metrics->counter("engine.sm_skipped_cycles")
            .inc(gpu_.smSkippedCycles());
    }
    return out;
}

} // namespace gqos
