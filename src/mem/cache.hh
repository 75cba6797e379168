/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Only tags are modelled (no data): the performance model needs hit
 * or miss decisions and replacement behaviour, nothing else. Lines
 * are tagged with the owning kernel so sharing-induced pollution can
 * be measured and so a kernel's lines can be invalidated when it is
 * preempted off an SM.
 */

#ifndef GQOS_MEM_CACHE_HH
#define GQOS_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"

namespace gqos
{

/** Statistics kept by each cache instance. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }

    void
    reset()
    {
        accesses = 0;
        misses = 0;
    }
};

/**
 * A set-associative LRU tag array.
 */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_bytes line size (must divide size_bytes * assoc)
     */
    Cache(int size_bytes, int assoc, int line_bytes = lineSizeBytes);

    /**
     * Look up @p addr, allocating the line on a miss.
     *
     * @param addr byte address (any address within the line)
     * @param kernel owning kernel recorded on allocation
     * @return true on hit
     */
    bool access(Addr addr, KernelId kernel);

    /** Look up without allocating (used by write-no-allocate). */
    bool probe(Addr addr) const;

    /** Invalidate every line owned by @p kernel. */
    void invalidateKernel(KernelId kernel);

    /** Number of valid lines currently owned by @p kernel. */
    int linesOwnedBy(KernelId kernel) const;

    int numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /**
     * One tag. 16 bytes, so a 16-way set scan reads four host cache
     * lines; the owner is narrowed to fit every KernelId.
     */
    struct Line
    {
        Addr tag = 0;
        std::uint32_t lastUse = 0;
        std::int8_t owner = invalidKernel;
        bool valid = false;
    };
    static_assert(sizeof(Line) == 16);
    static_assert(maxKernels <= INT8_MAX && invalidKernel >= INT8_MIN);

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    int assoc_;
    int lineShift_;
    int numSets_;
    std::uint32_t useClock_ = 0;
    std::vector<Line> lines_; //!< numSets_ x assoc_, row-major
    CacheStats stats_;
};

} // namespace gqos

#endif // GQOS_MEM_CACHE_HH
