/**
 * @file
 * Histogram implementation.
 */

#include "common/stats.hh"

#include "common/logging.hh"

namespace gqos
{

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            gqos_fatal("histogram bounds must be strictly increasing");
    }
    counts_.assign(bounds_.size() + 1, 0);
}

void
Histogram::add(double v)
{
    std::size_t idx = 0;
    while (idx < bounds_.size() && v > bounds_[idx])
        idx++;
    counts_[idx]++;
    total_++;
}

std::uint64_t
Histogram::bucketCount(std::size_t idx) const
{
    gqos_assert(idx < counts_.size());
    return counts_[idx];
}

void
Histogram::reset()
{
    counts_.assign(counts_.size(), 0);
    total_ = 0;
}

} // namespace gqos
