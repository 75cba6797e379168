/**
 * @file
 * Sweep-executor implementation.
 *
 * Structure: the case list is mapped onto *contexts* (one per
 * distinct GPU configuration, each with its own shared ResultCache),
 * then executed in two phases — isolated-baseline warm-up and the
 * cases themselves — by a fixed pool of workers that pop a shared
 * atomic cursor. Because the cursor is popped in submission order,
 * the first error recorded with the lowest submission priority is
 * exactly the error the sequential path would have hit first, which
 * keeps failure reporting deterministic under any job count.
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
#include <sstream>
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

/** One distinct GPU configuration a sweep touches. */
struct SweepContext
{
    Runner::Options options;
    std::shared_ptr<ResultCache> cache; //!< null when caching is off
};

/** An isolated-baseline warm-up job. */
struct BaselineJob
{
    std::size_t ctx;
    std::string kernel;
    std::size_t firstCase; //!< first case referencing the kernel
    std::optional<double> ipc; //!< set once the job has succeeded
};

std::string
formatGoal(double goal)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", goal);
    return buf;
}

} // anonymous namespace

std::string
SweepCase::describe() const
{
    std::ostringstream os;
    os << policy;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        os << "|" << kernels[i] << ":"
           << (i < goals.size() ? formatGoal(goals[i]) : "?");
    }
    if (!config.empty())
        os << "@" << config;
    return os.str();
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

    const std::uint64_t faultsBefore =
        FaultInjector::instance().totalInjected();

    // ---- contexts: one per distinct GPU configuration ----
    std::vector<SweepContext> contexts;
    contexts.push_back({runner.options(), runner.sharedCache()});
    std::map<std::string, std::size_t> contextByConfig;
    contextByConfig[runner.options().configName] = 0;
    std::vector<std::size_t> caseContext(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &cfg = cases[i].config;
        if (cfg.empty())
            continue;
        auto [it, fresh] =
            contextByConfig.try_emplace(cfg, contexts.size());
        if (fresh) {
            Runner::Options o = runner.options();
            o.configName = cfg;
            // The probe validates the config name and opens (or
            // creates) that configuration's cache exactly once.
            Result<Runner> probe = Runner::make(o);
            if (!probe.ok()) {
                return Error::format(
                    probe.error().code(),
                    "sweep case %zu/%zu (%s): %s", i + 1, n,
                    cases[i].describe().c_str(),
                    probe.error().message().c_str());
            }
            contexts.push_back(
                {std::move(o), probe.value().sharedCache()});
        }
        caseContext[i] = it->second;
    }

    // ---- baseline warm-up jobs ----
    // Every referenced kernel's isolated IPC is computed once, up
    // front, whether or not the cache is on; the results then seed
    // the baseline memo of every case-phase Runner, so no worker
    // simulates (or even looks up) a baseline again.
    std::vector<BaselineJob> baselines;
    std::set<std::pair<std::size_t, std::string>> seen;
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::string &kernel : cases[i].kernels) {
            if (seen.emplace(caseContext[i], kernel).second)
                baselines.push_back({caseContext[i], kernel, i, {}});
        }
    }
    // Per-context baselines handed to every worker Runner; context 0
    // starts from whatever the caller's Runner already knows.
    std::vector<std::map<std::string, double>> known(
        contexts.size());
    known[0] = runner.isolatedBaselines();

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

    // Worker runners for non-default contexts on the calling thread
    // persist across phases (the jobs == 1 path).
    std::vector<std::optional<Runner>> inlineRunners(
        contexts.size());

    /**
     * Pop-and-run @p count items of one phase. Workers pop the
     * shared cursor (submission order), resolve the item's context
     * to a thread-local Runner, and run @p work. With one job the
     * loop runs inline on the calling thread and context 0 resolves
     * to the caller's own Runner — the classic sequential path.
     */
    auto runPhase = [&](std::size_t count, auto &&contextOf,
                        auto &&work, std::size_t priorityBase) {
        if (count == 0 || abort.load(std::memory_order_relaxed))
            return;
        cursor.store(0);
        auto loop = [&](std::vector<std::optional<Runner>> &slots,
                        Runner *inlineRunner) {
            for (;;) {
                if (abort.load(std::memory_order_relaxed))
                    break;
                std::size_t i = cursor.fetch_add(1);
                if (i >= count)
                    break;
                std::size_t ctx = contextOf(i);
                Runner *r = nullptr;
                if (inlineRunner && ctx == 0) {
                    r = inlineRunner;
                } else {
                    if (!slots[ctx]) {
                        Result<Runner> mr = Runner::make(
                            contexts[ctx].options,
                            contexts[ctx].cache);
                        if (!mr.ok()) {
                            recordError(priorityBase + i,
                                        mr.error());
                            continue;
                        }
                        slots[ctx].emplace(std::move(mr).value());
                        slots[ctx]->adoptIsolatedBaselines(
                            known[ctx]);
                    }
                    r = &*slots[ctx];
                }
                Result<void> w = work(*r, i);
                if (!w.ok())
                    recordError(priorityBase + i, w.error());
            }
        };

        int workers = static_cast<int>(
            std::min<std::size_t>(jobs, count));
        if (workers <= 1) {
            loop(inlineRunners, &runner);
            return;
        }
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (int w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                std::vector<std::optional<Runner>> slots(
                    contexts.size());
                loop(slots, nullptr);
            });
        }
        for (std::thread &t : pool)
            t.join();
    };

    runPhase(baselines.size(),
             [&](std::size_t j) { return baselines[j].ctx; },
             runBaseline, 0);
    for (const BaselineJob &b : baselines) {
        if (b.ipc)
            known[b.ctx].emplace(b.kernel, *b.ipc);
    }
    runner.adoptIsolatedBaselines(known[0]);
    runPhase(n, [&](std::size_t i) { return caseContext[i]; },
             runOneCase, baselines.size());

    // Make everything computed so far durable in one batch flush;
    // after this, at most nothing is pending — a later crash cannot
    // lose sweep results.
    for (const SweepContext &ctx : contexts) {
        if (ctx.cache)
            ctx.cache->flush();
    }

    const double secs = elapsedSec();
    const int used = static_cast<int>(std::min<std::size_t>(jobs, n));
    const std::uint64_t faultsSeen =
        FaultInjector::instance().totalInjected() - faultsBefore;
    if (stats) {
        stats->total = n;
        stats->cacheHits = hits.load();
        stats->jobs = used;
        stats->elapsedSec = secs;
        stats->faultsInjected = faultsSeen;
    }
    if (RunReport *report = runner.options().report) {
        ReportSweep rs;
        rs.label = opts.label;
        rs.total = static_cast<int>(n);
        rs.cacheHits = static_cast<int>(hits.load());
        rs.jobs = used;
        rs.elapsedSec = secs;
        rs.faultsInjected = faultsSeen;
        // Every fault absorbed without surfacing an error counts as
        // recovered; an aborted sweep makes no such claim.
        rs.faultsRecovered = firstError ? 0 : faultsSeen;
        report->addSweep(rs);
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
