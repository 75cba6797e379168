/**
 * @file
 * Fine-grained QoS policy implementation.
 */

#include "policy/fine_grain_qos.hh"

namespace gqos
{

FineGrainQosPolicy::FineGrainQosPolicy(std::vector<QosSpec> specs,
                                       FineGrainOptions opts,
                                       Cycle epoch_length)
    : quota_(specs, opts.quota, epoch_length),
      staticAlloc_(specs, opts.staticAlloc),
      opts_(opts)
{
}

void
FineGrainQosPolicy::attachTelemetry(TraceSink *trace,
                                    MetricsRegistry *metrics)
{
    quota_.attachTelemetry(trace, metrics);
    staticAlloc_.attachTelemetry(trace, metrics);
}

void
FineGrainQosPolicy::onFinish(Gpu &gpu)
{
    // Flush the trailing partial epoch so per-epoch instruction
    // deltas sum to Gpu::threadInstrs() at run end.
    quota_.finishTrace(gpu);
}

void
FineGrainQosPolicy::onLaunch(Gpu &gpu)
{
    staticAlloc_.installInitialTargets(gpu);
    quota_.onLaunch(gpu);
}

Cycle
FineGrainQosPolicy::onCycle(Gpu &gpu)
{
    int epoch = quota_.epochIndex();
    Cycle next = quota_.onCycle(gpu);
    if (quota_.epochIndex() != epoch) {
        // Use the idle-warp samples of the finished epoch, then
        // clear them for the next one.
        staticAlloc_.adjust(gpu, quota_);
        for (int s = 0; s < gpu.numSms(); ++s)
            gpu.sm(s).resetIwSamples();
    }
    return next;
}

std::string
FineGrainQosPolicy::name() const
{
    std::string n = toString(quota_.options().scheme);
    if (quota_.options().timeMux)
        n += "-time";
    if (!quota_.options().historyAdjust)
        n += "-nohist";
    if (!opts_.staticAlloc.runtimeAdjust)
        n += "-nostatic";
    return n;
}

} // namespace gqos
