/**
 * @file
 * SM-to-memory-partition interconnect model.
 *
 * Modelled as a latency plus a GPU-wide injection-bandwidth limit
 * using a next-free-time accumulator: each flit occupies
 * 1/flitsPerCycle cycles of shared capacity, so queueing delay grows
 * smoothly once offered load exceeds capacity. This O(1)-per-request
 * model preserves the contention behaviour the QoS mechanisms
 * interact with (Section 3.1 of the paper) at a tiny fraction of the
 * cost of a flit-level network simulation.
 */

#ifndef GQOS_MEM_INTERCONNECT_HH
#define GQOS_MEM_INTERCONNECT_HH

#include <cmath>
#include <cstdint>

#include "arch/gpu_config.hh"
#include "arch/types.hh"

namespace gqos
{

/** Interconnect traffic statistics. */
struct IcntStats
{
    std::uint64_t flits = 0;
};

/**
 * Shared request network between SMs and memory partitions.
 */
class Interconnect
{
  public:
    explicit Interconnect(const GpuConfig &cfg)
        : latency_(cfg.icntLatency),
          serviceTime_(1.0 / cfg.icntFlitsPerCycle)
    {}

    /**
     * Inject one request flit at time @p now.
     * @return the time the flit arrives at the memory partition.
     */
    double
    inject(double now)
    {
        double start = nextFree_ > now ? nextFree_ : now;
        nextFree_ = start + serviceTime_;
        stats_.flits++;
        return start + latency_;
    }

    /** Current queue backlog relative to @p now, in cycles. */
    double
    backlog(double now) const
    {
        return nextFree_ > now ? nextFree_ - now : 0.0;
    }

    /**
     * First integer cycle at which backlog() will have decayed to
     * @p threshold or less, assuming no further injections. Used by
     * the event engine to bound skips across a store-throttled span.
     */
    Cycle
    unblockCycle(double threshold) const
    {
        double t = nextFree_ - threshold;
        if (t <= 0.0)
            return 0;
        return static_cast<Cycle>(std::ceil(t));
    }

    /** One-way latency in cycles. */
    int latency() const { return latency_; }

    const IcntStats &stats() const { return stats_; }

  private:
    int latency_;
    double serviceTime_;
    double nextFree_ = 0.0;
    IcntStats stats_;
};

} // namespace gqos

#endif // GQOS_MEM_INTERCONNECT_HH
