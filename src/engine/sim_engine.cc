/**
 * @file
 * Event-aware stepping engine implementation.
 */

#include "engine/sim_engine.hh"

#include <algorithm>

#include "common/metrics.hh"
#include "gpu/gpu.hh"
#include "policy/sharing_policy.hh"

namespace gqos
{

const char *
toString(EngineKind kind)
{
    return kind == EngineKind::Reference ? "reference" : "event";
}

Result<EngineKind>
parseEngineKind(const std::string &name)
{
    if (name == "event")
        return EngineKind::Event;
    if (name == "reference")
        return EngineKind::Reference;
    return Error::format(ErrorCode::InvalidArgument,
                         "unknown engine '%s' (expected 'event' or "
                         "'reference')", name.c_str());
}

SimEngine::SimEngine(EngineKind kind, Cycle stall_window)
    : kind_(kind), watchdog_(stall_window)
{
}

bool
SimEngine::observe(const Gpu &gpu)
{
    std::uint64_t instrs = 0;
    bool any_live = false;
    for (int k = 0; k < gpu.numKernels(); ++k) {
        instrs += gpu.threadInstrs(static_cast<KernelId>(k));
        any_live |= gpu.dispatchState(
            static_cast<KernelId>(k)).liveTbs > 0;
    }
    return watchdog_.observe(gpu.now(), instrs, any_live);
}

bool
SimEngine::runUntil(Gpu &gpu, SharingPolicy &policy, Cycle until)
{
    while (gpu.now() < until) {
        Cycle now = gpu.now();
        if (kind_ == EngineKind::Event && !lastStepActive_) {
            // Cap every skip at the next watchdog sample: the
            // reference loop observes after executing each cycle
            // that is a multiple of the stride, so a span may cover
            // at most one sample point, taken at the same cycle
            // with the same (frozen) instruction/liveness values.
            Cycle target = std::min(until, nextObserveAt_ + 1);
            target = std::min(target, gpu.nextEventAt());
            if (target > now) {
                // The machine is inert; the policy bounds the span.
                Cycle control = policy.nextControlAt(gpu, now);
                if (control <= now) {
                    stats_.controlPoints++;
                    target = now;
                } else {
                    target = std::min(target, control);
                }
            }
            if (target > now) {
                gpu.skipTo(target);
                stats_.skippedCycles += target - now;
                stats_.skips++;
                if (gpu.now() > nextObserveAt_) {
                    nextObserveAt_ += watchdogStride;
                    if (observe(gpu))
                        return true;
                }
                continue;
            }
        }
        policy.onCycle(gpu);
        lastStepActive_ = gpu.step(kind_ == EngineKind::Event);
        stats_.steppedCycles++;
        if (now == nextObserveAt_) {
            nextObserveAt_ += watchdogStride;
            if (observe(gpu))
                return true;
        }
    }
    return false;
}

void
exportEngineCounters(const SimEngine &engine, const Gpu &gpu,
                     MetricsRegistry &metrics)
{
    metrics.counter("engine.stepped_cycles")
        .inc(engine.stats().steppedCycles);
    metrics.counter("engine.skipped_cycles")
        .inc(engine.stats().skippedCycles);
    metrics.counter("engine.control_points")
        .inc(engine.stats().controlPoints);
    metrics.counter("engine.sm_skipped_cycles")
        .inc(gpu.smSkippedCycles());
}

} // namespace gqos
