/**
 * @file
 * Memory-system facade: per-SM L1 caches, shared interconnect and
 * the memory partitions (L2 + DRAM), wired together as in the
 * paper's Figure 1.
 */

#ifndef GQOS_MEM_MEM_SYSTEM_HH
#define GQOS_MEM_MEM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "mem/cache.hh"
#include "mem/interconnect.hh"
#include "mem/mem_partition.hh"

namespace gqos
{

/** Result of a load issued to the memory system. */
struct MemAccess
{
    Cycle readyAt = 0; //!< cycle the data is back at the SM
    bool l1Miss = false;
};

/** Aggregate memory-system activity, consumed by the power model. */
struct MemSystemStats
{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t contextLines = 0;
    std::array<std::uint64_t, maxKernels> dramByKernel{};
};

/**
 * The complete memory hierarchy below the SM pipelines.
 *
 * Loads return their completion cycle synchronously (next-free-time
 * queueing); the SM model keeps the issuing warp blocked until then
 * and accounts MSHR occupancy on its side.
 */
class MemSystem
{
  public:
    explicit MemSystem(const GpuConfig &cfg);

    /** Issue a load; @return completion cycle and L1 hit/miss. */
    MemAccess load(SmId sm, KernelId kernel, Addr addr, Cycle now);

    /**
     * Issue a write-through store. The warp does not wait, but the
     * store consumes interconnect and DRAM bandwidth.
     */
    void store(SmId sm, KernelId kernel, Addr addr, Cycle now);

    /**
     * Charge the context traffic of a partial context switch
     * (@p bytes moved to/from device memory from SM @p sm).
     * @return completion cycle of the transfer.
     */
    Cycle injectContextTraffic(SmId sm, std::uint64_t bytes,
                               Cycle now);

    /** Drop a kernel's L1 lines on SM @p sm (TB preempted away). */
    void invalidateKernelL1(SmId sm, KernelId kernel);

    /** L1 cache of SM @p sm (tests and detailed stats). */
    Cache &l1(SmId sm);
    const Cache &l1(SmId sm) const;

    MemPartition &partition(int idx);
    const MemPartition &partition(int idx) const;
    int numPartitions() const
    {
        return static_cast<int>(partitions_.size());
    }

    Interconnect &interconnect() { return icnt_; }
    const Interconnect &interconnect() const { return icnt_; }

    const MemSystemStats &stats() const { return stats_; }

    /** Total DRAM accesses across partitions. */
    std::uint64_t totalDramAccesses() const;

    /** Total L2 accesses across partitions. */
    std::uint64_t totalL2Accesses() const;

    /** Total L2 misses across partitions. */
    std::uint64_t totalL2Misses() const;

    /** Partition index serving @p addr. */
    int partitionOf(Addr addr) const;

  private:
    std::vector<Cache> l1s_;
    Interconnect icnt_;
    int l1HitLatency_;
    std::vector<MemPartition> partitions_;
    MemSystemStats stats_;
    Cycle contextCursor_ = 0; //!< spreads context lines round-robin
};

} // namespace gqos

#endif // GQOS_MEM_MEM_SYSTEM_HH
