/**
 * @file
 * Structured end-of-run report (--stats-json).
 *
 * A RunReport collects one entry per top-level harness case (the
 * nested isolated-baseline runs are folded into their parents), one
 * per sweep and one per serving run, and serializes everything —
 * together with the attached MetricsRegistry — as a single JSON
 * document. Entries hold the harness, sweep and serving result types
 * themselves, so the report has no copy of their fields. Thread-safe:
 * sweep workers append cases concurrently; write() sorts entries by
 * case key so the emitted JSON does not depend on worker timing.
 */

#ifndef GQOS_HARNESS_RUN_REPORT_HH
#define GQOS_HARNESS_RUN_REPORT_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "serving/server.hh"
#include "telemetry/cycle_accounting.hh"

namespace gqos
{

class MetricsRegistry;

/**
 * Schema version of the --stats-json document (top-level
 * "schema_version" field). Bump when entries gain, lose or
 * reinterpret fields.
 *
 *   1: initial layout
 *   2: schema_version stamped; cases and serving entries gain
 *      "cycle_breakdown" (cycle-attribution profiler)
 *   3: cases gain "free_preemption" after "key"; metrics lose the
 *      always-empty "gauges" and "histograms" objects
 */
constexpr int reportSchemaVersion = 3;

/**
 * One top-level harness case: the CaseResult the caller got, plus
 * how it was run.
 */
struct ReportCase
{
    std::string key;       //!< cache key ("policy|k0:g0|...")
    /** Run with free partial context switches (Runner::Options);
     *  the key and config do not say so. */
    bool freePreemption = false;
    std::string policy;
    std::string config;
    std::string engine;    //!< stepping engine ("event"/"reference")
    double wallSec = 0.0;  //!< run() wall time (incl. baselines)
    /** Simulated cycles per second (0 for cache hits). */
    double simCyclesPerSec = 0.0;
    /** Trace artifact of this case ("" when untraced). */
    std::string tracePath;
    /** Per-kernel cycle attribution summed over SMs (empty when the
     *  profiler was off or the case came from the cache). */
    std::vector<CycleBreakdown> cycleBreakdown;
    CaseResult result;
};

/** One runSweep() invocation. */
struct ReportSweep
{
    std::string label;
    SweepStats stats;
    std::uint64_t faultsRecovered = 0; //!< injected and survived
};

/** One online-serving run (bench_serving load point). */
struct ReportServing
{
    std::string label;      //!< e.g. "poisson@x2.0"
    std::string policy;
    ServingReport report;
};

/**
 * Collector behind --stats-json. Attach one to the Runner options;
 * every top-level run() appends a case, runSweep() appends a sweep
 * summary, and the CLI boundary calls writeFile() at exit.
 */
class RunReport
{
  public:
    /** Append one case entry (thread-safe). */
    void addCase(ReportCase c);

    /** Append one sweep summary (thread-safe). */
    void addSweep(ReportSweep s);

    /** Append one serving-run entry (thread-safe). */
    void addServing(ReportServing s);

    /** Case entries collected so far. */
    std::size_t caseCount() const;

    /**
     * Serialize as one JSON object: {"cases":[...],"sweeps":[...],
     * "serving":[...],"metrics":{...}}. Cases are sorted by
     * (key, config) and serving entries by label; sweeps keep
     * insertion order. @p metrics may be null (emitted as {}).
     */
    void write(std::ostream &os,
               const MetricsRegistry *metrics = nullptr) const;

    /** write() to @p path via an ofstream. */
    Result<void> writeFile(const std::string &path,
                           const MetricsRegistry *metrics
                           = nullptr) const;

  private:
    mutable std::mutex mutex_;
    std::vector<ReportCase> cases_;
    std::vector<ReportSweep> sweeps_;
    std::vector<ReportServing> serving_;
};

} // namespace gqos

#endif // GQOS_HARNESS_RUN_REPORT_HH
