/**
 * @file
 * Parallel sweep executor for figure benchmarks.
 *
 * Every figure bench walks an embarrassingly parallel space of
 * independent (kernels, goals, policy) cases. runSweep() fans a
 * submitted case vector across a fixed-size pool of worker threads
 * that all run on the caller's thread-safe Runner (one result
 * cache, one baseline memo, one simulation count), and returns
 * results in *submission order* regardless of completion order, so
 * a bench's printed output is byte-identical whatever --jobs is.
 * Every case runs on the caller's GPU configuration; a bench that
 * needs another machine builds its own Runner.
 *
 * Guarantees:
 *  - Determinism: the returned vector (values and order) does not
 *    depend on the job count; `--jobs 1` runs the cases inline,
 *    reproducing the classic sequential path.
 *  - Fault determinism: before each case the executor rebases the
 *    fault-injection stream onto the case's stable submission index
 *    (FaultInjector::beginScope), so GQOS_FAULT sweeps are
 *    bit-identical at any --jobs value.
 *  - Error propagation: a failing case cancels the sweep cleanly
 *    (in-flight cases finish, queued cases are skipped) and the
 *    sweep returns the failing case's Error annotated with its
 *    identity — never a fatal() from a worker thread.
 *  - Baseline warm-up: isolated baselines of every referenced kernel
 *    are computed first (in parallel) into the Runner's memo, cache
 *    on or off, so each baseline is simulated at most once per
 *    sweep at any --jobs, and a cache-off sweep traces the same
 *    records as a cold-cache one.
 *  - Durability: the sweep flushes the result cache and the trace
 *    sink once, when it ends (also when it fails).
 */

#ifndef GQOS_HARNESS_SWEEP_HH
#define GQOS_HARNESS_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.hh"
#include "harness/runner.hh"

namespace gqos
{

/** One unit of sweep work. */
struct SweepCase
{
    std::vector<std::string> kernels;
    std::vector<double> goals;   //!< per-kernel fraction; 0 non-QoS
    std::string policy;
    /**
     * Empty, or the sweep Runner's configuration name: every case
     * of a sweep runs on that one machine, and runSweep() rejects a
     * case naming any other. (perfbench brace-initializes all four
     * members.)
     */
    std::string config = "";

    /** "policy|k0:g0|k1:g1" — for errors and logs. */
    std::string describe() const;
};

/** Execution knobs of one runSweep() call. */
struct SweepOptions
{
    /** Worker threads; <= 0 selects defaultSweepJobs(). */
    int jobs = 0;
    /** Emit progress / summary lines on stderr. */
    bool progress = true;
    /** Short tag prefixed to progress lines. */
    std::string label = "sweep";
};

/** What a sweep did, for progress reporting and experiments. */
struct SweepStats
{
    std::size_t total = 0;      //!< cases executed
    std::size_t cacheHits = 0;  //!< cases served from the cache
    int jobs = 1;               //!< workers actually used
    double elapsedSec = 0.0;    //!< wall clock of the sweep
    /** Synthetic faults injected while this sweep ran. */
    std::uint64_t faultsInjected = 0;
};

/** Default worker count: hardware threads (at least 1). */
int defaultSweepJobs();

/**
 * Run @p work(i) for every i < @p count on min(@p jobs, @p count)
 * threads (@p jobs <= 0 selects defaultSweepJobs()); one worker runs
 * inline on the calling thread. Indices start in ascending order.
 * After a failure no new index starts, so every index below the
 * lowest failing one has run, and its error is returned.
 */
Result<void>
forEachOrdered(std::size_t count, int jobs,
               const std::function<Result<void>(std::size_t)> &work);

/**
 * Run @p cases on @p runner and return their results in submission
 * order. On failure the error names the first failing case by
 * submission index and identity. @p stats, when given, receives the
 * same SweepStats the run report records.
 */
Result<std::vector<CaseResult>>
runSweep(Runner &runner, const std::vector<SweepCase> &cases,
         const SweepOptions &opts = {}, SweepStats *stats = nullptr);

} // namespace gqos

#endif // GQOS_HARNESS_SWEEP_HH
