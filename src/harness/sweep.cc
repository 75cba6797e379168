/**
 * @file
 * Sweep-executor implementation.
 *
 * Structure: the case list is executed in two phases — isolated-
 * baseline warm-up and the cases themselves — each one
 * forEachOrdered() call on the caller's Runner. Workers pop a shared
 * atomic cursor, so indices start in submission order and the error
 * of the lowest failing index is exactly the error the sequential
 * path would have hit first, which keeps failure reporting
 * deterministic under any job count.
 */

#include "harness/sweep.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/fault_injection.hh"
#include "harness/run_report.hh"
#include "telemetry/trace.hh"

namespace gqos
{

namespace
{

/**
 * Fault scopes of baseline jobs live in the top half of the id
 * space so they can never collide with case submission indices.
 */
constexpr std::uint64_t baselineScopeBase = 1ull << 63;

/** An isolated-baseline warm-up job. */
struct BaselineJob
{
    std::string kernel;
    std::size_t firstCase; //!< first case referencing the kernel
};

} // anonymous namespace

std::string
SweepCase::describe() const
{
    return caseKey(kernels, goals, policy);
}

int
defaultSweepJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

Result<void>
forEachOrdered(std::size_t count, int jobs,
               const std::function<Result<void>(std::size_t)> &work)
{
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::mutex errMutex;
    std::optional<Error> firstError;
    std::size_t firstFailure = count;

    auto loop = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = cursor.fetch_add(1);
            if (i >= count)
                return;
            Result<void> r = work(i);
            if (r.ok())
                continue;
            std::lock_guard<std::mutex> guard(errMutex);
            if (i < firstFailure) {
                firstFailure = i;
                firstError = r.error();
            }
            failed.store(true, std::memory_order_relaxed);
        }
    };

    const std::size_t workers = std::min<std::size_t>(
        count, jobs > 0 ? jobs : defaultSweepJobs());
    if (workers <= 1) {
        loop();
    } else {
        // The caller's thread stays out of the pool, so the fault
        // scope it carries is the one it had before the call.
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(loop);
        for (std::thread &t : pool)
            t.join();
    }
    if (firstError)
        return *std::move(firstError);
    return {};
}

Result<std::vector<CaseResult>>
runSweep(Runner &runner, const std::vector<SweepCase> &cases,
         const SweepOptions &opts, SweepStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    const std::size_t n = cases.size();
    const int jobs =
        std::max(1, opts.jobs > 0 ? opts.jobs : defaultSweepJobs());

    if (stats)
        *stats = SweepStats{};
    if (n == 0)
        return std::vector<CaseResult>{};

    const std::string &config = runner.options().configName;
    for (std::size_t i = 0; i < n; ++i) {
        if (!cases[i].config.empty() && cases[i].config != config) {
            return Error::format(
                ErrorCode::InvalidArgument,
                "sweep case %zu/%zu (%s): configuration '%s' is not "
                "the sweep's '%s'; run it on a Runner of its own",
                i + 1, n, cases[i].describe().c_str(),
                cases[i].config.c_str(), config.c_str());
        }
    }

    const std::uint64_t faultsBefore =
        FaultInjector::instance().totalInjected();

    // ---- baseline warm-up jobs ----
    // Every referenced kernel's isolated IPC is computed once, up
    // front, into the Runner's baseline memo, whether or not the
    // cache is on; the cases then find every baseline there.
    std::vector<BaselineJob> baselines;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string &kernel : cases[i].kernels) {
            if (seen.insert(kernel).second)
                baselines.push_back({kernel, i});
        }
    }

    std::vector<CaseResult> results(n);
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> hits{0};

    auto elapsedSec = [&] {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    const bool tty = ::isatty(2) != 0;
    std::mutex progressMutex;
    auto progressTick = [&] {
        if (!opts.progress || !tty)
            return;
        std::lock_guard<std::mutex> guard(progressMutex);
        std::fprintf(stderr,
                     "\r[%s] %zu/%zu cases, %zu cache hits, %.1fs ",
                     opts.label.c_str(), done.load(), n,
                     hits.load(), elapsedSec());
    };

    auto runBaseline = [&](std::size_t j) -> Result<void> {
        FaultInjector::instance().beginScope(baselineScopeBase + j);
        const BaselineJob &b = baselines[j];
        Result<double> iso = runner.isolatedIpc(b.kernel);
        if (!iso.ok()) {
            return Error::format(
                iso.error().code(),
                "sweep case %zu/%zu (%s): isolated baseline for "
                "kernel '%s': %s",
                b.firstCase + 1, n,
                cases[b.firstCase].describe().c_str(),
                b.kernel.c_str(), iso.error().message().c_str());
        }
        return {};
    };

    auto runOneCase = [&](std::size_t i) -> Result<void> {
        FaultInjector::instance().beginScope(i);
        Result<CaseResult> cr =
            runner.run(cases[i].kernels, cases[i].goals,
                       cases[i].policy);
        if (!cr.ok()) {
            return Error::format(
                cr.error().code(), "sweep case %zu/%zu (%s): %s",
                i + 1, n, cases[i].describe().c_str(),
                cr.error().message().c_str());
        }
        if (cr.value().fromCache)
            hits.fetch_add(1, std::memory_order_relaxed);
        results[i] = std::move(cr).value();
        done.fetch_add(1, std::memory_order_relaxed);
        progressTick();
        return {};
    };

    Result<void> status =
        forEachOrdered(baselines.size(), jobs, runBaseline);
    if (status.ok())
        status = forEachOrdered(n, jobs, runOneCase);

    // Make everything computed so far durable in one batch flush;
    // after this, at most nothing is pending — a later crash cannot
    // lose sweep results. The trace sink is flushed once here too
    // (a timeline flush rewrites its whole document).
    if (std::shared_ptr<ResultCache> cache = runner.sharedCache())
        cache->flush();
    if (TraceSink *trace = runner.options().traceSink)
        trace->flush();

    const double secs = elapsedSec();
    const int used = static_cast<int>(std::min<std::size_t>(jobs, n));
    const std::uint64_t faultsSeen =
        FaultInjector::instance().totalInjected() - faultsBefore;
    const SweepStats swept{n, hits.load(), used, secs, faultsSeen};
    if (stats)
        *stats = swept;
    if (RunReport *report = runner.options().report) {
        // Every fault absorbed without surfacing an error counts as
        // recovered; an aborted sweep makes no such claim.
        report->addSweep({opts.label, swept,
                          status.ok() ? faultsSeen : 0});
    }
    if (opts.progress) {
        std::fprintf(stderr,
                     "%s[%s] %zu/%zu cases, %zu cache hits, %.1fs, "
                     "%d job%s\n",
                     tty ? "\r" : "", opts.label.c_str(),
                     done.load(), n, hits.load(), secs, used,
                     used == 1 ? "" : "s");
    }

    if (!status.ok())
        return status.error();
    return results;
}

} // namespace gqos
