/**
 * @file
 * Sweep-executor implementation.
 *
 * Structure: the case list is executed in two phases — isolated-
 * baseline warm-up and the cases themselves — by a fixed pool of
 * workers that pop a shared atomic cursor. Because the cursor is
 * popped in submission order, the first error recorded with the
 * lowest submission priority is exactly the error the sequential
 * path would have hit first, which keeps failure reporting
 * deterministic under any job count.
 */

#include "harness/sweep.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "harness/run_report.hh"

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
    std::optional<double> ipc; //!< set once the job has succeeded
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
    // front, whether or not the cache is on; the results then seed
    // the baseline memo of every case-phase Runner, so no worker
    // simulates (or even looks up) a baseline again.
    std::vector<BaselineJob> baselines;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string &kernel : cases[i].kernels) {
            if (seen.insert(kernel).second)
                baselines.push_back({kernel, i, {}});
        }
    }
    // Baselines handed to every worker Runner, starting from
    // whatever the caller's Runner already knows.
    std::map<std::string, double> known = runner.isolatedBaselines();

    // ---- shared execution state ----
    std::vector<CaseResult> results(n);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> hits{0};
    std::atomic<bool> abort{false};
    std::mutex errMutex;
    std::optional<Error> firstError;
    std::size_t firstErrorPriority = static_cast<std::size_t>(-1);

    auto recordError = [&](std::size_t priority, Error e) {
        std::lock_guard<std::mutex> guard(errMutex);
        if (priority < firstErrorPriority) {
            firstErrorPriority = priority;
            firstError = std::move(e);
        }
        abort.store(true, std::memory_order_relaxed);
    };

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

    auto runBaseline = [&](Runner &r,
                           std::size_t j) -> Result<void> {
        FaultInjector::instance().beginScope(baselineScopeBase + j);
        BaselineJob &b = baselines[j];
        Result<double> iso = r.isolatedIpc(b.kernel);
        if (!iso.ok()) {
            return Error::format(
                iso.error().code(),
                "sweep case %zu/%zu (%s): isolated baseline for "
                "kernel '%s': %s",
                b.firstCase + 1, n,
                cases[b.firstCase].describe().c_str(),
                b.kernel.c_str(), iso.error().message().c_str());
        }
        b.ipc = iso.value();
        return {};
    };

    auto runOneCase = [&](Runner &r,
                          std::size_t i) -> Result<void> {
        FaultInjector::instance().beginScope(i);
        Result<CaseResult> cr =
            r.run(cases[i].kernels, cases[i].goals,
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

    /**
     * Pop-and-run @p count items of one phase. Workers pop the
     * shared cursor (submission order) and run @p work on a
     * thread-local Runner sharing the caller's options and cache.
     * With one job the loop runs inline on the caller's own Runner
     * — the classic sequential path.
     */
    auto runPhase = [&](std::size_t count, auto &&work,
                        std::size_t priorityBase) {
        if (count == 0 || abort.load(std::memory_order_relaxed))
            return;
        cursor.store(0);
        auto loop = [&](Runner *r) {
            std::optional<Runner> own;
            for (;;) {
                if (abort.load(std::memory_order_relaxed))
                    break;
                std::size_t i = cursor.fetch_add(1);
                if (i >= count)
                    break;
                if (!r) {
                    Result<Runner> mr = Runner::make(
                        runner.options(), runner.sharedCache());
                    if (!mr.ok()) {
                        recordError(priorityBase + i, mr.error());
                        continue;
                    }
                    own.emplace(std::move(mr).value());
                    own->adoptIsolatedBaselines(known);
                    r = &*own;
                }
                Result<void> w = work(*r, i);
                if (!w.ok())
                    recordError(priorityBase + i, w.error());
            }
        };

        int workers = static_cast<int>(
            std::min<std::size_t>(jobs, count));
        if (workers <= 1) {
            loop(&runner);
            return;
        }
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&] { loop(nullptr); });
        for (std::thread &t : pool)
            t.join();
    };

    runPhase(baselines.size(), runBaseline, 0);
    for (const BaselineJob &b : baselines) {
        if (b.ipc)
            known.emplace(b.kernel, *b.ipc);
    }
    runner.adoptIsolatedBaselines(known);
    runPhase(n, runOneCase, baselines.size());

    // Make everything computed so far durable in one batch flush;
    // after this, at most nothing is pending — a later crash cannot
    // lose sweep results.
    if (std::shared_ptr<ResultCache> cache = runner.sharedCache())
        cache->flush();

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
                          firstError ? 0 : faultsSeen});
    }
    if (MetricsRegistry *metrics = runner.options().metrics) {
        metrics->counter("harness.sweeps").inc();
        metrics->counter("harness.sweep_cases").inc(n);
        metrics->counter("harness.sweep_cache_hits")
            .inc(hits.load());
        metrics->observe("harness.sweep_wall_sec", secs);
    }
    if (opts.progress) {
        std::fprintf(stderr,
                     "%s[%s] %zu/%zu cases, %zu cache hits, %.1fs, "
                     "%d job%s\n",
                     tty ? "\r" : "", opts.label.c_str(),
                     done.load(), n, hits.load(), secs, used,
                     used == 1 ? "" : "s");
    }

    if (firstError)
        return *std::move(firstError);
    return results;
}

} // namespace gqos
