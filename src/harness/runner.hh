/**
 * @file
 * Experiment harness: runs (kernel set, QoS goals, policy) cases,
 * translates goal fractions into absolute IPC goals against cached
 * isolated baselines, and memoizes results on disk so the benchmark
 * binaries for different figures share each other's runs.
 *
 * Robustness: user-input paths (construction, case runs) report
 * recoverable errors through Result instead of exiting, the on-disk
 * cache (harness/result_cache.hh) is versioned, CRC-protected,
 * written atomically under an advisory lock, and corrupt lines are
 * quarantined and transparently re-simulated. A watchdog aborts
 * non-advancing simulations with a structured error instead of
 * spinning forever.
 *
 * Concurrency: one Runner must stay on one thread, but several
 * Runners (one per sweep worker, see harness/sweep.hh) may share a
 * single ResultCache, which is thread-safe.
 */

#ifndef GQOS_HARNESS_RUNNER_HH
#define GQOS_HARNESS_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "arch/types.hh"
#include "common/result.hh"
#include "engine/sim_engine.hh"
#include "harness/result_cache.hh"
#include "telemetry/cycle_accounting.hh"

namespace gqos
{

class TraceSink;
class MetricsRegistry;
class RunReport;

/** Result for one kernel of a co-run case. */
struct KernelResult
{
    std::string name;
    double ipc = 0.0;          //!< achieved thread-IPC
    double ipcIsolated = 0.0;  //!< isolated baseline
    double goalFrac = 0.0;     //!< requested fraction (0 = non-QoS)
    double goalIpc = 0.0;      //!< absolute IPC goal (0 = non-QoS)
    bool isQos = false;

    /**
     * Measurement tolerance on the reach criterion. The paper
     * measures over 2M cycles; this reproduction's scaled-down
     * window (default 200K - warmup) carries about +-1% of
     * finite-window noise, so a kernel within 0.5% of its goal is
     * counted as reaching it. Applied identically to every scheme.
     */
    static constexpr double reachTolerance = 0.995;

    /** QoS goal reached (QoS kernels only). */
    bool
    reached() const
    {
        return !isQos || ipc >= goalIpc * reachTolerance;
    }

    /** Throughput normalized to isolated execution. */
    double
    normalizedThroughput() const
    {
        return ipcIsolated > 0.0 ? ipc / ipcIsolated : 0.0;
    }

    /** QoS throughput normalized to the goal (Figure 9). */
    double
    normalizedToGoal() const
    {
        return goalIpc > 0.0 ? ipc / goalIpc : 0.0;
    }
};

/** Result of one co-run case. */
struct CaseResult
{
    std::vector<KernelResult> kernels;
    double instrPerWatt = 0.0; //!< instruction rate per Watt
    std::uint64_t preemptions = 0;
    double dramPerKcycle = 0.0;
    bool fromCache = false;

    /** All QoS goals of the case reached. */
    bool allReached() const;

    /** Mean normalized throughput of the non-QoS kernels. */
    double nonQosThroughput() const;

    /** Mean goal-normalized throughput of the QoS kernels. */
    double qosOvershoot() const;
};

/**
 * Case runner with crash-safe on-disk memoization.
 */
class Runner
{
  public:
    struct Options
    {
        Cycle cycles = 200000;        //!< total simulated cycles
        /**
         * Cycles excluded from IPC measurement while policies
         * converge. The paper's 2M-cycle runs make convergence
         * negligible; at our scaled-down window the warmup must be
         * excluded explicitly (applied identically to isolated
         * baselines and co-runs). Must be <= cycles / 2.
         */
        Cycle warmupCycles = 50000;
        std::string configName = "default"; //!< or "large"
        std::string cacheDir = ".qos_cache";
        bool useCache = true;
        bool verbose = false;
        /** Make partial context switches free (Section 4.8). */
        bool freePreemption = false;
        /**
         * Stepping engine (engine/sim_engine.hh). The default
         * event engine fast-forwards provably inert spans; the
         * reference engine executes every cycle. Both produce
         * bit-identical results, so the result cache is shared
         * between them by design.
         */
        EngineKind engine = EngineKind::Event;

        // -- telemetry (observers, owned by the caller; all three
        //    must outlive every Runner copied from these options) --

        /**
         * Epoch-trace sink shared by every case this runner (and
         * its sweep workers) simulates. Records are stamped with
         * the case key, so one file can hold a whole sweep. Null =
         * no tracing. Tracing never changes simulation results.
         */
        TraceSink *traceSink = nullptr;
        /** Where traceSink writes, recorded in reports/cache meta. */
        std::string tracePath;
        /** Registry for qos.* / harness.* metrics (null = off). */
        MetricsRegistry *metrics = nullptr;
        /** Per-case report collector (--stats-json; null = off). */
        RunReport *report = nullptr;
    };

    /**
     * Validate @p opts (config name exists, warmupCycles <=
     * cycles / 2)
     * and build a runner. All user-input problems come back as
     * errors; nothing in the harness exits the process.
     */
    static Result<Runner> make(Options opts);

    /**
     * Like make(), but share @p cache instead of opening (and
     * re-loading) the cache file. Used by sweep workers so every
     * thread sees one coherent memo. @p cache must back the same
     * file the options resolve to; a null @p cache behaves exactly
     * like make(opts).
     */
    static Result<Runner> make(Options opts,
                               std::shared_ptr<ResultCache> cache);

    Runner(Runner &&) = default;
    Runner &operator=(Runner &&) = default;

    /**
     * Isolated (full-GPU, single-kernel) IPC of @p kernel. Each
     * kernel is looked up in the result cache or simulated at most
     * once per Runner; successful results are memoized in memory,
     * so a cache-off Runner does not re-simulate baselines per case.
     */
    Result<double> isolatedIpc(const std::string &kernel);

    /** Baselines memoized so far (kernel name -> isolated IPC). */
    const std::map<std::string, double> &
    isolatedBaselines() const
    {
        return baselines_;
    }

    /**
     * Adopt @p baselines measured by a Runner with the same options
     * (a sweep hands its pre-pass results to every worker Runner).
     * Entries this Runner already holds are kept.
     */
    void
    adoptIsolatedBaselines(
        const std::map<std::string, double> &baselines)
    {
        baselines_.insert(baselines.begin(), baselines.end());
    }

    /**
     * Run one co-run case.
     * @param kernels suite kernel names (2 or 3 typically)
     * @param goal_frac per-kernel goal as a fraction of isolated
     *                  IPC; 0 marks a non-QoS kernel
     * @param policy policy name (see makePolicy())
     */
    Result<CaseResult> run(const std::vector<std::string> &kernels,
                           const std::vector<double> &goal_frac,
                           const std::string &policy);

    const GpuConfig &config() const { return cfg_; }
    const Options &options() const { return opts_; }

    /** Cases simulated (not served from cache) so far. */
    int simulatedCases() const { return simulated_; }

    /** Cache lines quarantined while loading the cache file. */
    int
    quarantinedLines() const
    {
        return cache_ ? cache_->quarantinedLines() : 0;
    }

    /** On-disk cache file backing this runner ("" if disabled). */
    const std::string &cachePath() const { return cachePath_; }

    /** The cache instance, for sharing with make() (may be null). */
    std::shared_ptr<ResultCache> sharedCache() const
    {
        return cache_;
    }

    /** Header line expected at the top of every cache file. */
    static constexpr const char *cacheHeader = ResultCache::header;

  private:
    Runner(Options opts, GpuConfig cfg,
           std::shared_ptr<ResultCache> cache);

    /** What one simulate() call measured. */
    struct Simulated
    {
        CachedCase numbers; //!< what the result cache seals
        /** Simulated cycles per wall-clock second. */
        double simCyclesPerSec = 0.0;
        /** Per-kernel cycle attribution (empty when the profiler
         *  was off). */
        std::vector<CycleBreakdown> breakdown;
    };

    std::string caseKey(const std::vector<std::string> &kernels,
                        const std::vector<double> &goal_frac,
                        const std::string &policy) const;
    Result<Simulated> simulate(
        const std::vector<std::string> &kernels,
        const std::vector<double> &goal_frac,
        const std::string &policy);

    Options opts_;
    GpuConfig cfg_;
    std::string cachePath_;
    std::shared_ptr<ResultCache> cache_;
    /**
     * isolatedIpc() memo. The kernel name is a complete key: config,
     * cycles, warmup, free preemption and engine are fixed per
     * Runner, and both engines are bit-identical by contract.
     */
    std::map<std::string, double> baselines_;
    int simulated_ = 0;
    /**
     * run() nesting depth: isolated-baseline runs recurse through
     * run(), and only depth-1 calls are report-worthy cases.
     */
    int runDepth_ = 0;
};

/** Standard goal sweep of the paper: 50%..95% step 5%. */
std::vector<double> paperGoalSweep();

/** Two-QoS-kernel sweep: 25%..70% step 5% (both kernels). */
std::vector<double> paperDualGoalSweep();

} // namespace gqos

#endif // GQOS_HARNESS_RUNNER_HH
