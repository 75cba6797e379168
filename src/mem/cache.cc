/**
 * @file
 * Cache tag-array implementation.
 */

#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace gqos
{

Cache::Cache(int size_bytes, int assoc, int line_bytes)
    : assoc_(assoc)
{
    if (assoc < 1)
        gqos_fatal("cache associativity must be >= 1");
    if (line_bytes < 1 || (line_bytes & (line_bytes - 1)) != 0)
        gqos_fatal("cache line size must be a power of two");
    lineShift_ = std::countr_zero(
        static_cast<unsigned>(line_bytes));
    int total_lines = size_bytes / line_bytes;
    if (total_lines < assoc || total_lines % assoc != 0)
        gqos_fatal("cache size %dB does not divide into %d-way sets",
                   size_bytes, assoc);
    numSets_ = total_lines / assoc;
    lines_.assign(static_cast<std::size_t>(numSets_) * assoc_,
                  Line());
}

std::size_t
Cache::setIndex(Addr addr) const
{
    // Avalanche hash: decorrelates the set index from the memory-
    // partition interleaving (which hashes the same line address
    // with a different multiplier) and spreads power-of-two strides
    // and per-kernel address-space bases across sets.
    Addr line = addr >> lineShift_;
    line *= 0x9e3779b97f4a7c15ull;
    line ^= line >> 32;
    return static_cast<std::size_t>(line %
        static_cast<Addr>(numSets_));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

bool
Cache::access(Addr addr, KernelId kernel)
{
    stats_.accesses++;
    useClock_++;
    Line *set = &lines_[setIndex(addr) * assoc_];
    Addr tag = tagOf(addr);

    Line *victim = &set[0];
    for (int w = 0; w < assoc_; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid &&
                   line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    stats_.misses++;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    victim->owner = static_cast<std::int8_t>(kernel);
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Line *set = &lines_[setIndex(addr) * assoc_];
    Addr tag = tagOf(addr);
    for (int w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidateKernel(KernelId kernel)
{
    for (auto &line : lines_) {
        if (line.valid && line.owner == kernel)
            line.valid = false;
    }
}

int
Cache::linesOwnedBy(KernelId kernel) const
{
    int n = 0;
    for (const auto &line : lines_) {
        if (line.valid && line.owner == kernel)
            n++;
    }
    return n;
}

} // namespace gqos
