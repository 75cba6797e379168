/**
 * @file
 * Small statistics package: running sample statistics and
 * fixed-bucket histograms used throughout the simulator.
 */

#ifndef GQOS_COMMON_STATS_HH
#define GQOS_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace gqos
{

/**
 * Running sample statistics (count/mean/min/max) without storing the
 * samples themselves.
 */
class SampleStat
{
  public:
    /** Record one sample. */
    void
    add(double v)
    {
        count_++;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** Discard all samples. */
    void
    reset()
    {
        *this = SampleStat();
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Histogram with caller-defined bucket upper bounds. A sample lands
 * in the first bucket whose upper bound is >= the sample; samples
 * above the last bound land in the overflow bucket.
 */
class Histogram
{
  public:
    /** @param upper_bounds strictly increasing bucket upper bounds */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Record one sample. */
    void add(double v);

    /** Number of buckets, including the overflow bucket. */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Count in bucket @p idx. */
    std::uint64_t bucketCount(std::size_t idx) const;

    /** Total samples recorded. */
    std::uint64_t total() const { return total_; }

    /** Reset all buckets. */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace gqos

#endif // GQOS_COMMON_STATS_HH
