/**
 * @file
 * DRAM channel model.
 *
 * Each memory partition owns one channel. The channel is a
 * bandwidth-limited server (next-free-time accumulator) with a
 * row-buffer: consecutive accesses to the same 2KB row are served at
 * the base latency, row switches pay an activation penalty. This is
 * the minimal model that preserves (a) bandwidth saturation under
 * memory-intensive co-runners and (b) locality-dependent effective
 * bandwidth — the two DRAM behaviours the paper's evaluation
 * depends on.
 */

#ifndef GQOS_MEM_DRAM_HH
#define GQOS_MEM_DRAM_HH

#include <cstdint>

#include "arch/gpu_config.hh"
#include "arch/types.hh"

namespace gqos
{

/** Per-channel DRAM statistics. */
struct DramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t rowMisses = 0;
};

/**
 * One DRAM channel behind a memory partition.
 */
class DramChannel
{
  public:
    explicit DramChannel(const GpuConfig &cfg)
        : baseLatency_(cfg.dramLatency),
          rowMissExtra_(cfg.dramRowMissExtra),
          serviceTime_(1.0 / cfg.dramSlotsPerCycle)
    {}

    /**
     * Serve one line transaction arriving at @p arrival.
     * @return completion time of the transaction.
     */
    double
    serve(Addr addr, double arrival)
    {
        double start = nextFree_ > arrival ? nextFree_ : arrival;
        stats_.accesses++;
        nextFree_ = start + serviceTime_;

        Addr row = addr >> rowShift_;
        int latency = baseLatency_;
        if (row != openRow_) {
            latency += rowMissExtra_;
            openRow_ = row;
            stats_.rowMisses++;
        }
        return start + latency;
    }

    /** Current queue backlog relative to @p now, in cycles. */
    double
    backlog(double now) const
    {
        return nextFree_ > now ? nextFree_ - now : 0.0;
    }

    const DramStats &stats() const { return stats_; }

  private:
    static constexpr int rowShift_ = 11; //!< 2KB row buffer

    int baseLatency_;
    int rowMissExtra_;
    double serviceTime_;
    double nextFree_ = 0.0;
    Addr openRow_ = static_cast<Addr>(-1);
    DramStats stats_;
};

} // namespace gqos

#endif // GQOS_MEM_DRAM_HH
