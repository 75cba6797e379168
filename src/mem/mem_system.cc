/**
 * @file
 * Memory-system facade implementation.
 */

#include "mem/mem_system.hh"

#include <cmath>

#include "common/logging.hh"

namespace gqos
{

MemSystem::MemSystem(const GpuConfig &cfg)
    : icnt_(cfg), l1HitLatency_(cfg.l1HitLatency)
{
    l1s_.reserve(cfg.numSms);
    for (int i = 0; i < cfg.numSms; ++i)
        l1s_.emplace_back(cfg.l1Bytes, cfg.l1Assoc);
    partitions_.reserve(cfg.numMemPartitions);
    for (int i = 0; i < cfg.numMemPartitions; ++i)
        partitions_.emplace_back(cfg);
}

int
MemSystem::partitionOf(Addr addr) const
{
    // Avalanche hash (different multiplier than the cache set-index
    // hash) so partition choice and set index are decorrelated and
    // per-kernel bases spread across partitions.
    Addr line = addr >> 7;
    line *= 0xd1b54a32d192ed03ull;
    line ^= line >> 32;
    return static_cast<int>(line %
        static_cast<Addr>(partitions_.size()));
}

MemAccess
MemSystem::load(SmId sm, KernelId kernel, Addr addr, Cycle now)
{
    gqos_assert(sm >= 0 && sm < static_cast<int>(l1s_.size()));
    stats_.l1Accesses++;
    Cache &l1 = l1s_[sm];

    MemAccess out;
    if (l1.access(addr, kernel)) {
        out.readyAt = now + l1HitLatency_;
        out.l1Miss = false;
        return out;
    }

    stats_.l1Misses++;
    double arrival = icnt_.inject(static_cast<double>(now));
    MemPartition &part = partitions_[partitionOf(addr)];
    std::uint64_t dram_before = part.dram().stats().accesses;
    double done = part.read(addr, kernel, arrival);
    if (part.dram().stats().accesses != dram_before &&
        kernel >= 0 && kernel < maxKernels) {
        stats_.dramByKernel[kernel]++;
    }
    out.readyAt = static_cast<Cycle>(std::ceil(done)) +
                  icnt_.latency();
    out.l1Miss = true;
    return out;
}

void
MemSystem::store(SmId sm, KernelId kernel, Addr addr, Cycle now)
{
    gqos_assert(sm >= 0 && sm < static_cast<int>(l1s_.size()));
    stats_.stores++;
    // Write-through, no L1 allocate; update L1 only if present.
    double arrival = icnt_.inject(static_cast<double>(now));
    MemPartition &part = partitions_[partitionOf(addr)];
    std::uint64_t dram_before = part.dram().stats().accesses;
    part.write(addr, kernel, arrival);
    if (part.dram().stats().accesses != dram_before &&
        kernel >= 0 && kernel < maxKernels) {
        stats_.dramByKernel[kernel]++;
    }
}

Cycle
MemSystem::injectContextTraffic(SmId sm, std::uint64_t bytes,
                                Cycle now)
{
    (void)sm;
    std::uint64_t lines = (bytes + lineSizeBytes - 1) / lineSizeBytes;
    double done = static_cast<double>(now);
    for (std::uint64_t i = 0; i < lines; ++i) {
        stats_.contextLines++;
        double arrival = icnt_.inject(static_cast<double>(now));
        // Spread context lines round-robin over partitions; context
        // blocks are large and contiguous so row locality is high.
        Addr addr = (static_cast<Addr>(0xCCull) << 40) +
                    (contextCursor_++ * lineSizeBytes);
        MemPartition &part = partitions_[partitionOf(addr)];
        double t = part.rawDram(addr, arrival);
        if (t > done)
            done = t;
    }
    return static_cast<Cycle>(std::ceil(done));
}

void
MemSystem::invalidateKernelL1(SmId sm, KernelId kernel)
{
    gqos_assert(sm >= 0 && sm < static_cast<int>(l1s_.size()));
    l1s_[sm].invalidateKernel(kernel);
}

Cache &
MemSystem::l1(SmId sm)
{
    gqos_assert(sm >= 0 && sm < static_cast<int>(l1s_.size()));
    return l1s_[sm];
}

const Cache &
MemSystem::l1(SmId sm) const
{
    gqos_assert(sm >= 0 && sm < static_cast<int>(l1s_.size()));
    return l1s_[sm];
}

MemPartition &
MemSystem::partition(int idx)
{
    gqos_assert(idx >= 0 &&
                idx < static_cast<int>(partitions_.size()));
    return partitions_[idx];
}

const MemPartition &
MemSystem::partition(int idx) const
{
    gqos_assert(idx >= 0 &&
                idx < static_cast<int>(partitions_.size()));
    return partitions_[idx];
}

void
MemSystem::resetStats()
{
    stats_.reset();
    for (auto &l1 : l1s_)
        l1.resetStats();
    icnt_.resetStats();
    for (auto &p : partitions_) {
        p.l2().resetStats();
        p.dram().resetStats();
    }
}

std::uint64_t
MemSystem::totalDramAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &p : partitions_)
        n += p.dram().stats().accesses;
    return n;
}

std::uint64_t
MemSystem::totalL2Accesses() const
{
    std::uint64_t n = 0;
    for (const auto &p : partitions_)
        n += p.l2().stats().accesses;
    return n;
}

std::uint64_t
MemSystem::totalL2Misses() const
{
    std::uint64_t n = 0;
    for (const auto &p : partitions_)
        n += p.l2().stats().misses;
    return n;
}

} // namespace gqos
