/**
 * @file
 * Named-metric registry: counters that simulator components register
 * into by name, serialized as JSON.
 *
 * It holds only counters that have no other home: the policy's
 * qos.* and the stepping engine's engine.* totals. What the harness
 * and the serving driver know is in the run report's own entries
 * (harness/run_report.hh). One registry typically spans one run (a
 * Runner shares it with its sweep workers), so counter() hands out
 * a stable Counter handle whose inc() is a relaxed atomic add, safe
 * to call from any thread without re-entering the registry.
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
 * as "qos.epochs" or "engine.stepped_cycles".
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

    /**
     * Serialize as one JSON object {"counters":{...}}, counters
     * sorted by name.
     */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    // node-based maps: references into them are stable
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

} // namespace gqos

#endif // GQOS_COMMON_METRICS_HH
