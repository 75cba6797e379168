/**
 * @file
 * Named-metric registry: counters and sample distributions that
 * simulator components register into by name.
 *
 * Builds on the primitive accumulator SampleStat in common/stats.hh
 * and adds naming and JSON serialization on top. One registry typically spans one run (a
 * Runner owns one and shares it with its sweep workers), so the
 * registry is thread-safe:
 *
 *  - counter() hands out a stable Counter handle whose inc() is a
 *    relaxed atomic add — safe to call from any thread without
 *    re-entering the registry;
 *  - observe() takes the registry mutex; it is meant for epoch- or
 *    case-grained call sites where a lock is negligible.
 *
 * Overhead-when-disabled guarantee: instrumented components hold a
 * `MetricsRegistry *` that defaults to nullptr and cache their
 * Counter handles at attach time. With no registry attached every
 * instrumentation site reduces to one null-pointer test — no string
 * is formatted, no map is touched, nothing allocates.
 */

#ifndef GQOS_COMMON_METRICS_HH
#define GQOS_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/stats.hh"

namespace gqos
{

/**
 * A double as a JSON number: "%.17g" (round-trips bit-exactly), or
 * null when non-finite, since JSON has no inf/nan literals. Every
 * JSON writer in the repo (metrics, run report, trace, timeline)
 * formats doubles with this.
 */
std::string jsonNumber(double v);

/**
 * Registry of named metrics. Names are free-form strings; the
 * convention used by the simulator is dotted lower-case paths such
 * as "qos.epochs" or "harness.cache_hits".
 */
class MetricsRegistry
{
  public:
    /** Monotonic counter with a thread-safe, lock-free inc(). */
    class Counter
    {
      public:
        void
        inc(std::uint64_t n = 1)
        {
            value_.fetch_add(n, std::memory_order_relaxed);
        }

        std::uint64_t
        value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Create-or-get the counter @p name. The returned reference
     * stays valid for the registry's lifetime, so components fetch
     * it once at attach time and inc() it lock-free afterwards.
     */
    Counter &counter(const std::string &name);

    /** Record @p value into the sample distribution @p name. */
    void observe(const std::string &name, double value);

    /**
     * Serialize every metric as one JSON object, sections keyed by
     * kind ("counters", "samples"), metrics sorted by name within
     * each section.
     */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    // node-based maps: references into them are stable
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, SampleStat> samples_;
};

} // namespace gqos

#endif // GQOS_COMMON_METRICS_HH
