/**
 * @file
 * Sharing-policy interface.
 *
 * A SharingPolicy owns all resource-management decisions of a
 * co-run: initial and runtime TB allocation (via the GPU's TB
 * targets), EWS quota gating, and any periodic control logic. The
 * harness drives the simulation through the stepping engine
 * (engine/sim_engine.hh), which behaves as:
 *
 *     policy.onLaunch(gpu);
 *     loop { policy.onCycle(gpu); gpu.step(); }
 *
 * onCycle() runs before each executed step and must be cheap in
 * the common case; epoch-grained work triggers on epoch boundaries
 * internally. Its return value is the policy's next control point:
 * the event engine fast-forwards an idle machine up to it instead
 * of calling onCycle() every cycle.
 */

#ifndef GQOS_POLICY_SHARING_POLICY_HH
#define GQOS_POLICY_SHARING_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "qos/qos_spec.hh"

namespace gqos
{

class TraceSink;
class MetricsRegistry;

/**
 * Abstract base of all sharing policies.
 */
class SharingPolicy
{
  public:
    virtual ~SharingPolicy() = default;

    /** Called once after Gpu::launch(), before the first cycle. */
    virtual void onLaunch(Gpu &gpu) = 0;

    /**
     * Called before Gpu::step() on every executed cycle (the event
     * engine also calls it on the first cycle of a span it then
     * skips), at most once per cycle. Returns gpu.now() if the call
     * changed any state; otherwise the earliest later cycle at
     * which it might act if the machine does no work until then
     * (cycleNever: never). Mid-epoch conditions may be judged
     * against the current state: an idle machine's state is
     * frozen, and the engine calls again after every executed
     * cycle.
     */
    virtual Cycle onCycle(Gpu &gpu) = 0;

    /**
     * Attach telemetry consumers (either may be null). Must be
     * called before onLaunch(). Sinks observe only: attaching one
     * never changes simulation results. Default: ignore.
     */
    virtual void attachTelemetry(TraceSink *, MetricsRegistry *) {}

    /**
     * Called once after the last simulated cycle so the policy can
     * flush trailing telemetry (e.g. the final partial epoch).
     * Default: nothing.
     */
    virtual void onFinish(Gpu &) {}

    /** Policy name for reports. */
    virtual std::string name() const = 0;
};

} // namespace gqos

#endif // GQOS_POLICY_SHARING_POLICY_HH
