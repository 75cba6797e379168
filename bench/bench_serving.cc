/**
 * @file
 * Overload harness for the online serving driver.
 *
 * Sweeps an open-loop arrival stream across load multipliers
 * (default 0.5x..4x of the base rate) and reports per-tenant SLO
 * attainment, latency percentiles, goodput and rejection behaviour
 * at each point — the attainment-vs-load curves of EXPERIMENTS.md.
 * Sustained 2-4x overload doubles as a robustness test: the run
 * asserts conservation of every arrival, bounded queues, and no
 * watchdog trips, and its stdout plus trace JSONL are byte-identical
 * across reruns and `--jobs` values (load points simulate in
 * parallel, each buffering its trace records for in-order replay).
 *
 * Options beyond the common bench flags (see bench_common.hh):
 *   --loads L1,L2,..   load multipliers (default 0.5,1.0,2.0,4.0)
 *   --rate R           base per-tenant arrivals per kcycle (0.04,
 *                      calibrated so 1.0x runs the default mix near
 *                      capacity and 2x+ is genuine overload)
 *   --launches N       size each point's horizon for ~N total
 *                      arrivals (default 300; 0 = use --horizon)
 *   --horizon H        arrival window in cycles (default 400000)
 *   --arrival K        poisson | bursty | diurnal | file:PATH
 *   --tenants S        ";"-separated
 *                      name:kernel[:class[:goal[:slo[:queue]]]]
 *                      specs; slo 0 = no SLO (no deadline),
 *                      queue >= 1 (default: the 4-tenant standard
 *                      mix)
 *   --policy P         sharing policy (default "serving")
 *   --tick N           control-loop tick, cycles (default 256)
 *   --watchdog-ms M    per-tenant stall window, simulated ms
 *   --drain-grace N    cycles after the last arrival before the
 *                      hard stop (default 150000)
 *   --seed N           arrival-stream seed (default 1)
 *   --record-arrivals P  write each point's arrival trace to
 *                        P.<label>.jsonl (replayable via file:)
 */

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <thread>

#include "bench/bench_common.hh"
#include "common/fault_injection.hh"
#include "serving/arrival.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"

namespace gqos::bench
{
namespace
{

struct LoadPoint
{
    double load = 1.0;
    std::string label;
    std::vector<Arrival> arrivals;
    ServingReport report;
    RecordingTraceSink buffer;
    bool failed = false;
    std::string error;
};

std::string
loadLabel(const std::string &kindName, double load)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s@x%.2f", kindName.c_str(),
                  load);
    return buf;
}

void
printPoint(const LoadPoint &pt, const std::vector<TenantSpec> &mix,
           const std::string &policy)
{
    const ServingReport &r = pt.report;
    std::uint64_t totalArrivals = 0;
    for (const auto &t : r.tenants)
        totalArrivals += t.arrivals;
    std::printf("\n== serving %s policy=%s arrivals=%" PRIu64
                " ==\n",
                pt.label.c_str(), policy.c_str(), totalArrivals);
    std::printf("end=%" PRIu64 " level=%d changes=%" PRIu64
                " drained=%s%s%s\n",
                static_cast<std::uint64_t>(r.endCycle),
                r.finalLevel, r.levelChanges,
                r.drained ? "yes" : "no",
                r.engineStalled ? " ENGINE-STALLED" : "",
                r.anyTenantStalled ? " TENANT-STALLED" : "");
    std::printf("%-10s %-10s %6s %6s %6s %6s %7s %7s %6s %6s %5s "
                "%5s\n",
                "tenant", "class", "arr", "admit", "comp", "slo%",
                "p50", "p99", "rej", "aband", "drop", "maxq");
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        const TenantServingStats &t = r.tenants[i];
        const std::uint64_t rejected = t.rejectedQueueFull +
                                       t.rejectedShed +
                                       t.rejectedProjected;
        std::printf("%-10s %-10s %6" PRIu64 " %6" PRIu64
                    " %6" PRIu64 " %5.1f%% %7" PRIu64 " %7" PRIu64
                    " %6" PRIu64 " %6" PRIu64 " %5" PRIu64
                    " %5" PRIu64 "\n",
                    t.name.c_str(), toString(t.qosClass),
                    t.arrivals, t.admitted, t.completed,
                    100.0 * t.sloAttainment,
                    static_cast<std::uint64_t>(t.p50Latency),
                    static_cast<std::uint64_t>(t.p99Latency),
                    rejected, t.abandoned, t.droppedAtShutdown,
                    t.maxQueueDepth);

        // Robustness invariants, checked at every load point:
        // bounded queues and full conservation of arrivals.
        gqos_assert(t.maxQueueDepth <= mix[i].queueCap,
                    "tenant %s queue exceeded its bound",
                    t.name.c_str());
        gqos_assert(t.arrivals == t.admitted + rejected);
        gqos_assert(t.admitted == t.completed + t.abandoned +
                                      t.droppedAtShutdown);
    }
    // A healthy overload run degrades; it must never wedge.
    gqos_assert(!r.engineStalled, "engine stalled at %s",
                pt.label.c_str());
    gqos_assert(!r.anyTenantStalled, "tenant stalled at %s",
                pt.label.c_str());
}

int
servingMain(const CliArgs &args)
{
    initBenchTelemetry(args);
    BenchTelemetry &tel = benchTelemetry();

    std::vector<TenantSpec> mix;
    const std::string tenantSpecs = args.getString("tenants", "");
    mix = tenantSpecs.empty()
              ? defaultTenantMix()
              : okOrDie(parseTenantList(tenantSpecs));

    const std::string arrivalSpec =
        args.getString("arrival", "poisson");
    const bool fromFile = arrivalSpec.rfind("file:", 0) == 0;

    std::vector<double> loads =
        okOrDie(args.getPositiveList("loads", "0.5,1.0,2.0,4.0"));
    if (fromFile && loads.size() != 1) {
        // A file trace carries its own absolute load; multipliers
        // do not apply.
        loads = {1.0};
    }
    gqos_assert(!loads.empty());

    const double rate = args.getDouble("rate", 0.04);
    const Cycle horizonFlag =
        static_cast<Cycle>(args.getInt("horizon", 400000));
    const std::int64_t launches = args.getInt("launches", 300);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    ServingOptions base;
    base.configName = args.getString("config", "default");
    base.policy = args.getString("policy", "serving");
    base.engine =
        okOrDie(parseEngineKind(args.getString("engine", "event")));
    base.tick = static_cast<Cycle>(args.getInt("tick", 256));
    base.watchdogMs = args.getDouble("watchdog-ms", 0.0);
    base.drainGrace =
        static_cast<Cycle>(args.getInt("drain-grace", 150000));
    if (!tel.statsJsonPath.empty())
        base.metrics = &tel.metrics;

    const std::string kindName =
        fromFile ? "file" : arrivalSpec;

    // ---- build the load points ----
    std::vector<LoadPoint> points(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        points[i].load = loads[i];
        points[i].label = loadLabel(kindName, loads[i]);
        if (fromFile)
            continue; // parsed in the worker, under the case scope
        ArrivalConfig acfg;
        acfg.kind = okOrDie(parseArrivalKind(arrivalSpec));
        acfg.ratePerKcycle = rate * loads[i];
        acfg.numTenants = static_cast<int>(mix.size());
        acfg.seed = seed;
        acfg.horizon =
            launches > 0
                ? static_cast<Cycle>(std::ceil(
                      static_cast<double>(launches) * 1000.0 /
                      (acfg.ratePerKcycle *
                       static_cast<double>(mix.size()))))
                : horizonFlag;
        points[i].arrivals = generateArrivals(acfg);
        const std::string prefix =
            args.getString("record-arrivals", "");
        if (!prefix.empty()) {
            okOrDie(writeArrivalTrace(prefix + "." +
                                          points[i].label +
                                          ".jsonl",
                                      points[i].arrivals));
        }
    }

    // ---- run the points across workers; results are deterministic
    // because each point buffers its trace records and faults are
    // scoped to the point's submission index ----
    int jobs = static_cast<int>(args.getInt("jobs", 0));
    if (jobs <= 0)
        jobs = defaultSweepJobs();
    jobs = std::min<int>(jobs, static_cast<int>(points.size()));

    std::atomic<std::size_t> nextPoint{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                nextPoint.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                return;
            LoadPoint &pt = points[i];
            FaultInjector::instance().beginScope(i);
            if (fromFile) {
                std::uint64_t malformed = 0;
                auto loaded = loadArrivalTrace(
                    arrivalSpec.substr(5),
                    static_cast<int>(mix.size()), &malformed);
                if (!loaded.ok()) {
                    pt.failed = true;
                    pt.error = loaded.error().describe();
                    continue;
                }
                pt.arrivals = std::move(loaded.value());
            }
            ServingOptions opts = base;
            opts.caseKey = "serving|" + pt.label;
            auto driver = ServingDriver::make(mix, opts);
            if (!driver.ok()) {
                pt.failed = true;
                pt.error = driver.error().describe();
                continue;
            }
            // The point buffers its records for in-order replay to
            // the process-wide sink; with no sink attached the run
            // stays on the untraced fast path.
            auto rep = driver.value()->run(
                pt.arrivals, tel.sink() ? &pt.buffer : nullptr);
            if (!rep.ok()) {
                pt.failed = true;
                pt.error = rep.error().describe();
                continue;
            }
            pt.report = std::move(rep.value());
        }
    };
    std::vector<std::thread> threads;
    for (int j = 1; j < jobs; ++j)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    // ---- emit in submission order: stdout, trace, report ----
    printHeader("Online serving: attainment vs load");
    for (const LoadPoint &pt : points) {
        if (pt.failed)
            gqos_fatal("%s: %s", pt.label.c_str(),
                       pt.error.c_str());
        if (TraceSink *s = tel.sink())
            pt.buffer.replayTo(*s);
        printPoint(pt, mix, base.policy);
        if (!tel.statsJsonPath.empty())
            tel.report.addServing({pt.label, base.policy, pt.report});
    }
    if (TraceSink *s = tel.sink())
        s->flush();
    return 0;
}

} // anonymous namespace
} // namespace gqos::bench

int
main(int argc, char **argv)
{
    gqos::CliArgs args(argc, argv);
    return gqos::bench::servingMain(args);
}
