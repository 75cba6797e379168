/**
 * @file
 * Event-aware stepping engine implementation.
 */

#include "engine/sim_engine.hh"

#include <algorithm>

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
    const bool event = kind_ == EngineKind::Event;
    while (gpu.now() < until) {
        Cycle now = gpu.now();
        Cycle target = now;
        if (event) {
            // Cap every skip at the next watchdog sample: the
            // reference loop observes after executing each cycle
            // that is a multiple of the stride, so a span may cover
            // at most one sample point, taken at the same cycle
            // with the same (frozen) instruction/liveness values.
            // The machine bound is read before onCycle(): an action
            // mutates the SMs, which invalidates their bounds. After
            // a step where an SM issued or the dispatcher acted the
            // bound is now: that SM stays hot, the dispatcher dirty.
            Cycle machine = std::min(until, nextObserveAt_ + 1);
            machine = std::min(machine, gpu.nextEventAt());
            target = std::min(machine, policy.onCycle(gpu));
            // Only the policy needs this cycle of an inert machine.
            if (target <= now && machine > now)
                stats_.controlPoints++;
        } else {
            policy.onCycle(gpu);
        }
        if (target > now) {
            gpu.skipTo(target);
            stats_.skippedCycles += target - now;
            stats_.skips++;
        } else {
            gpu.step(event);
            stats_.steppedCycles++;
        }
        if (gpu.now() > nextObserveAt_) {
            nextObserveAt_ += watchdogStride;
            if (observe(gpu))
                return true;
        }
    }
    return false;
}

} // namespace gqos
