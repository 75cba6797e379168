/**
 * @file
 * Shared infrastructure for the figure-reproduction benchmarks.
 *
 * Every bench binary accepts the same options:
 *   --cycles N     simulated cycles per case (default 200000)
 *   --warmup N     warmup cycles excluded from IPC (default 40000,
 *                  capped at cycles/5 when not given explicitly;
 *                  an explicit value must be <= cycles/2)
 *   --pairs N      number of kernel pairs (default 18; the full
 *                  set is 90)
 *   --trios N      number of kernel trios (default 12; the full
 *                  set is 60)
 *   --cache DIR    result cache directory (default .qos_cache)
 *   --no-cache     disable the cache
 *   --full         paper-scale sweep (all 90 pairs / 60 trios)
 *   --jobs N       sweep worker threads (default: hardware
 *                  concurrency; 1 = classic sequential execution)
 *   --engine K     stepping engine: "event" (default; skips
 *                  provably inert cycles) or "reference" (per-cycle
 *                  loop). Results are bit-identical either way.
 *   --trace=FILE[,format]
 *                  stream per-epoch QoS telemetry to FILE as JSONL
 *                  (the only format; "jsonl" may be given
 *                  explicitly)
 *   --timeline=FILE
 *                  export a Chrome-trace/Perfetto timeline of the
 *                  run (SM occupancy slices, per-kernel counters,
 *                  scheduling instants) to FILE; load it at
 *                  https://ui.perfetto.dev. Composable with --trace.
 *   --stats-json=FILE
 *                  write a structured end-of-run report (cases,
 *                  sweeps, harness metrics) to FILE at exit; FILE
 *                  is created empty at startup, so an unwritable
 *                  FILE is fatal before any case runs
 *   --quiet / --verbose
 *                  lower / raise the log level
 *
 * Results are memoized in the cache directory, so running fig6
 * first makes fig7/8/9/14 nearly free. Case sweeps execute in
 * parallel through the Sweep wrapper below; stdout stays
 * byte-identical to a sequential run at any --jobs value.
 */

#ifndef GQOS_BENCH_BENCH_COMMON_HH
#define GQOS_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

namespace gqos::bench
{

/** Default subset sizes keeping one bench run in the minutes range
 *  on a laptop; --full restores the paper's 90 pairs / 60 trios. */
constexpr int defaultPairs = 18;
constexpr int defaultTrios = 12;

/**
 * Process-wide telemetry owned by the bench binary. The trace sink,
 * metrics registry and run report outlive every Runner (and every
 * Options copy handed to sweep workers); the destructor — running at
 * static teardown after main() returns — writes the --stats-json
 * report and closes the trace file.
 */
struct BenchTelemetry
{
    std::unique_ptr<TraceSink> trace;
    std::unique_ptr<TimelineSink> timeline;
    /** Fan-out when both --trace and --timeline are active. */
    std::unique_ptr<TraceSink> tee;
    std::string tracePath;
    std::string statsJsonPath;
    MetricsRegistry metrics;
    RunReport report;
    bool initialized = false;

    /**
     * The sink Runner options should observe: the tee when both
     * --trace and --timeline are given, else whichever one is.
     */
    TraceSink *
    sink() const
    {
        if (tee)
            return tee.get();
        if (timeline)
            return timeline.get();
        return trace.get();
    }

    ~BenchTelemetry()
    {
        if (trace)
            trace->flush();
        if (timeline)
            timeline->flush();
        if (statsJsonPath.empty())
            return;
        Result<void> w = report.writeFile(statsJsonPath, &metrics);
        if (!w.ok()) {
            gqos_warn("--stats-json: %s",
                      w.error().message().c_str());
        } else if (logLevel() != LogLevel::Quiet) {
            // Status goes to stderr: bench stdout is figure data and
            // must stay byte-identical with telemetry on or off.
            std::fprintf(stderr, "info: wrote run report to %s\n",
                         statsJsonPath.c_str());
        }
    }
};

inline BenchTelemetry &
benchTelemetry()
{
    static BenchTelemetry t;
    return t;
}

/**
 * One-time CLI telemetry setup: log level from --quiet/--verbose,
 * the trace sink from --trace, the report target from --stats-json.
 * Idempotent; runnerOptions() calls it so every bench gets the flags
 * without per-binary wiring.
 */
inline void
initBenchTelemetry(const CliArgs &args)
{
    applyLogLevelFlags(args);
    BenchTelemetry &t = benchTelemetry();
    if (t.initialized)
        return;
    t.initialized = true;
    const std::string spec = args.getString("trace", "");
    if (!spec.empty()) {
        t.trace = okOrDie(openTraceSink(spec));
        t.tracePath = traceSpecPath(spec);
        if (logLevel() != LogLevel::Quiet) {
            std::fprintf(stderr,
                         "info: tracing epoch telemetry to %s\n",
                         t.tracePath.c_str());
        }
    }
    const std::string timeline = args.getString("timeline", "");
    if (!timeline.empty()) {
        t.timeline = okOrDie(TimelineSink::open(timeline));
        if (logLevel() != LogLevel::Quiet) {
            std::fprintf(stderr,
                         "info: exporting Perfetto timeline to %s\n",
                         timeline.c_str());
        }
        if (t.trace) {
            t.tee = std::make_unique<TeeTraceSink>(t.trace.get(),
                                                   t.timeline.get());
        }
    }
    const std::string stats = args.getString("stats-json", "");
    if (!stats.empty()) {
        // Fail before the first case, not after the whole run. The
        // file stays empty until exit writes the report, so a run that
        // dies midway leaves nothing that passes for a report.
        if (!std::ofstream(stats)) {
            gqos_fatal("io-error: cannot open stats file '%s'",
                       stats.c_str());
        }
        t.statsJsonPath = stats;
    }
}

inline Runner::Options
runnerOptions(const CliArgs &args, const std::string &config = "default")
{
    initBenchTelemetry(args);
    BenchTelemetry &t = benchTelemetry();
    Runner::Options opts;
    opts.cycles = args.getInt("cycles", 200000);
    // An explicit --warmup is validated as-is by Runner::make; the
    // default scales down so a short --cycles run stays legal.
    opts.warmupCycles = args.has("warmup")
        ? args.getInt("warmup", 40000)
        : std::min<Cycle>(40000, opts.cycles / 5);
    opts.configName = args.getString("config", config);
    // CliArgs rewrites `--no-cache` to `cache=false`, so the cache
    // option doubles as a directory path and an off switch.
    std::string cache = args.getString("cache", ".qos_cache");
    bool cacheOn = cache != "false";
    opts.cacheDir = cacheOn ? cache : ".qos_cache";
    opts.useCache = cacheOn;
    opts.verbose = args.getBool("verbose", false);
    opts.engine = okOrDie(
        parseEngineKind(args.getString("engine", "event")));
    opts.traceSink = t.sink();
    opts.tracePath = t.tracePath;
    if (!t.statsJsonPath.empty()) {
        opts.metrics = &t.metrics;
        opts.report = &t.report;
    }
    return opts;
}

/**
 * CLI-boundary constructors: the harness reports recoverable errors
 * through Result; a bench binary's only sensible reaction to bad
 * options or an unknown kernel/policy is fatal(), so the unwrap
 * happens here and nowhere deeper.
 */
inline Runner
makeRunner(const CliArgs &args, const std::string &config = "default")
{
    return okOrDie(Runner::make(runnerOptions(args, config)));
}

/** Run one case or fatal() with the error message. */
inline CaseResult
runCase(Runner &runner, const std::vector<std::string> &kernels,
        const std::vector<double> &goals, const std::string &policy)
{
    return okOrDie(runner.run(kernels, goals, policy));
}

/** Isolated-baseline lookup or fatal(). */
inline double
isolatedIpc(Runner &runner, const std::string &kernel)
{
    return okOrDie(runner.isolatedIpc(kernel));
}

/** Deterministically subsample every Nth element to @p count. */
template <typename T>
std::vector<T>
subsample(const std::vector<T> &all, int count)
{
    if (count <= 0 || count >= static_cast<int>(all.size()))
        return all;
    std::vector<T> out;
    double stride = static_cast<double>(all.size()) / count;
    for (int i = 0; i < count; ++i)
        out.push_back(all[static_cast<std::size_t>(i * stride)]);
    return out;
}

inline std::vector<std::pair<std::string, std::string>>
selectedPairs(const CliArgs &args)
{
    int n = args.getBool("full", false)
        ? 0 : static_cast<int>(args.getInt("pairs", defaultPairs));
    return subsample(parboilPairs(), n);
}

inline std::vector<std::array<std::string, 3>>
selectedTrios(const CliArgs &args)
{
    int n = args.getBool("full", false)
        ? 0 : static_cast<int>(args.getInt("trios", defaultTrios));
    return subsample(parboilTrios(), n);
}

/** Accumulates QoSreach (Section 4.1 metric) per goal bucket. */
class ReachStat
{
  public:
    void
    add(bool reached)
    {
        total_++;
        if (reached)
            success_++;
    }

    double
    reach() const
    {
        return total_ ? static_cast<double>(success_) / total_ : 0.0;
    }

    int total() const { return total_; }
    int success() const { return success_; }

  private:
    int total_ = 0;
    int success_ = 0;
};

/** Mean accumulator for throughput columns. */
class MeanStat
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        n_++;
    }

    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    int count() const { return n_; }

  private:
    double sum_ = 0.0;
    int n_ = 0;
};

inline void
printHeader(const char *title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "=================================================="
                "============\n", title);
}

/** Sweep execution knobs from the common CLI flags (--jobs). */
inline SweepOptions
sweepOptions(const CliArgs &args, const std::string &label)
{
    SweepOptions so;
    so.jobs = static_cast<int>(args.getInt("jobs", 0));
    so.label = label;
    return so;
}

/** Which of the two Sweep::execute() passes is running. */
enum class Pass
{
    Plan, //!< collect cases; placeholder results, silent printfs
    Emit  //!< replay real results in submission order and print
};

/**
 * Two-pass plan/emit wrapper turning a bench's case loops into one
 * parallel sweep without changing its printed output:
 *
 *     Sweep sweep(runner, sweepOptions(args, "fig6"));
 *     sweep.execute([&](Sweep &sw) {
 *         sw.header("Figure 6 ...");
 *         for (double goal : paperGoalSweep()) {
 *             CaseResult r = sw.run({qos, bg}, {goal, 0}, "spart");
 *             sw.printf("%.3f\n", r.nonQosThroughput());
 *         }
 *     });
 *
 * The body runs twice. In the Plan pass run() only records the case
 * (returning a placeholder) and printf()/header() stay silent; the
 * recorded cases then execute across --jobs worker threads
 * (runSweep); in the Emit pass run() replays the results in exact
 * submission order, so stdout is byte-identical to a sequential
 * run at any job count. Anything in the body *besides* these calls
 * executes twice — guard expensive or stateful side work with
 * planning(), and declare accumulators inside the body so each
 * pass starts fresh.
 */
class Sweep
{
  public:
    Sweep(Runner &runner, SweepOptions opts)
        : runner_(runner), opts_(std::move(opts))
    {}

    /** Run @p body through both passes (fatal on a failed case). */
    template <typename Body>
    void
    execute(Body &&body)
    {
        pass_ = Pass::Plan;
        cases_.clear();
        body(*this);
        results_ =
            okOrDie(runSweep(runner_, cases_, opts_, &stats_));
        pass_ = Pass::Emit;
        cursor_ = 0;
        body(*this);
        gqos_assert(cursor_ == results_.size());
    }

    /**
     * Plan pass: record the case, return a placeholder. Emit pass:
     * return the next swept result (submission order). The body
     * must request the identical case sequence in both passes.
     */
    CaseResult
    run(const std::vector<std::string> &kernels,
        const std::vector<double> &goals, const std::string &policy)
    {
        if (pass_ == Pass::Plan) {
            cases_.push_back({kernels, goals, policy});
            return CaseResult{};
        }
        gqos_assert(cursor_ < results_.size());
        return results_[cursor_++];
    }

    /** True during the Plan pass (results are placeholders). */
    bool planning() const { return pass_ == Pass::Plan; }

    /** printf to stdout, silent during the Plan pass. */
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    void
    printf(const char *fmt, ...)
    {
        if (pass_ != Pass::Emit)
            return;
        va_list ap;
        va_start(ap, fmt);
        std::vprintf(fmt, ap);
        va_end(ap);
    }

    /** printHeader(), silent during the Plan pass. */
    void
    header(const char *title)
    {
        if (pass_ == Pass::Emit)
            printHeader(title);
    }

    /** Stats of the last execute() (done/hits/jobs/elapsed). */
    const SweepStats &stats() const { return stats_; }

  private:
    Runner &runner_;
    SweepOptions opts_;
    Pass pass_ = Pass::Plan;
    std::vector<SweepCase> cases_;
    std::vector<CaseResult> results_;
    std::size_t cursor_ = 0;
    SweepStats stats_;
};

} // namespace gqos::bench

#endif // GQOS_BENCH_BENCH_COMMON_HH
