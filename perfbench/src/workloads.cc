/**
 * @file
 * Workload rounds, correctness gate and metric assembly of the
 * repository benchmark.
 */

#include "workloads.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "harness/run_report.hh"
#include "harness/runner.hh"
#include "measure.hh"
#include "replay.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using gqos::CaseResult;
using gqos::Cycle;
using gqos::SweepCase;

const std::vector<std::string> policies = {
    "spart", "naive", "elastic", "rollover", "rollover-time"};

/** Base per-tenant arrival rate: 1x runs the mix near capacity. */
constexpr double servingBaseRate = 0.04;
constexpr int servingStreamsPerLoad = 6;
/**
 * Arrivals per 1x load point; 4x points carry twice as many so both
 * kinds of point cost about the same host time and per-point times
 * form one distribution rather than two.
 */
constexpr int servingLaunchesAt1x = 150;
/** Arrivals of each stream the traced run's serving replay feeds. */
constexpr std::size_t servingReplayArrivals = 120;

/** Cases per sweep workload re-checked by the correctness gate. */
constexpr std::size_t gateCases = 4;
/** Cases per sweep workload replayed by the traced run. */
constexpr std::size_t replayCases = 4;

/** Fewest rounds a run measures, whatever --seconds says. */
constexpr std::size_t minRounds = 2;

/**
 * Host-speed probe slices sampled before and after each round's timed
 * part, and in every gap between its pieces (set-up, then each case or
 * load point).
 */
constexpr int probesAtEdge = 10;
constexpr int probesPerGap = 3;
/** Set-ups a round times (its own and ones it drops). */
constexpr int setupRepeats = 3;
/** A probe slice's host time on the reference host (a quiet 4-core
 *  Xeon VM). */
constexpr double referenceProbeSec = 0.0022;
/**
 * How much more the simulator slows down than the probe on a busy
 * host: its host time grows as the probe's to this power. The probe's
 * tight loops suffer less from neighbours than the simulator's larger
 * code and data; 1.5 flattened the drift of all three workloads best
 * in runs spread over an hour on the reference host (1.0 left a third
 * to half of it).
 */
constexpr double hostSensitivity = 1.5;

template <typename T>
void
shuffle(std::vector<T> &v, gqos::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

double
pick(const std::vector<double> &v, gqos::Rng &rng)
{
    return v[rng.below(v.size())];
}

/** Pairs grouped by class: C+C, C+M, M+C, M+M (QoS kernel first). */
std::vector<std::vector<std::pair<std::string, std::string>>>
pairsByClass()
{
    std::vector<std::vector<std::pair<std::string, std::string>>> out(4);
    for (const auto &p : gqos::parboilPairs())
        out[2 * isMemoryBound(p.first) + isMemoryBound(p.second)]
            .push_back(p);
    return out;
}

/** A trio case; @p rot picks which member holds the first goal. */
SweepCase
trioCase(const std::array<std::string, 3> &t, std::uint64_t rot,
         bool two_qos, const std::string &policy, gqos::Rng &rng)
{
    SweepCase c;
    for (int i = 0; i < 3; ++i)
        c.kernels.push_back(t[(i + rot) % 3]);
    const double g = two_qos ? pick(gqos::paperDualGoalSweep(), rng)
                             : pick(gqos::paperGoalSweep(), rng);
    c.goals = {g, two_qos ? g : 0.0, 0.0};
    c.policy = policy;
    return c;
}

/** Distinct kernels of @p cases in first-use order. */
std::vector<std::string>
kernelsOf(const std::vector<SweepCase> &cases)
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const SweepCase &c : cases) {
        for (const std::string &k : c.kernels) {
            if (seen.insert(k).second)
                out.push_back(k);
        }
    }
    return out;
}

/** A seeded subsample of @p n indices into @p size elements. */
std::vector<std::size_t>
subsample(std::size_t size, std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> idx(size);
    for (std::size_t i = 0; i < size; ++i)
        idx[i] = i;
    gqos::Rng rng(seed);
    shuffle(idx, rng);
    idx.resize(std::min(n, size));
    std::sort(idx.begin(), idx.end());
    return idx;
}

gqos::CachedCase
cachedOf(const CaseResult &r)
{
    gqos::CachedCase c;
    for (const auto &k : r.kernels)
        c.ipc.push_back(k.ipc);
    c.instrPerWatt = r.instrPerWatt;
    c.preemptions = r.preemptions;
    c.dramPerKcycle = r.dramPerKcycle;
    return c;
}

bool
sameCaseResult(const CaseResult &a, const CaseResult &b)
{
    if (!sameBits(cachedOf(a), cachedOf(b)))
        return false;
    for (std::size_t i = 0; i < a.kernels.size(); ++i) {
        if (std::memcmp(&a.kernels[i].ipcIsolated,
                        &b.kernels[i].ipcIsolated, sizeof(double)) != 0)
            return false;
    }
    return true;
}

gqos::Runner::Options
caseOptions()
{
    gqos::Runner::Options o;
    o.cycles = caseCycles;
    o.warmupCycles = caseWarmup;
    return o;
}

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

/** Host time, per-case samples and outputs of one round. */
struct Round
{
    double wallSec = 0.0;
    double setupSec = 0.0;
    double simCycles = 0.0;        //!< simulated cycles after set-up
    std::vector<double> caseMs;
    std::vector<double> caseLoad;  //!< serving: load of each case
    /** Set-ups timed before the round's own and dropped. */
    std::vector<double> extraSetupSec;
    /**
     * Host-speed probe slices (s) in groups: group i was sampled just
     * before piece i (the extra set-ups, the round's set-up, then each
     * case in turn), the last group after the timed part.
     */
    std::vector<std::vector<double>> probes;
    /** wallSec, caseMs and the median set-up scaled to the reference
     *  host, and the wall after the round's own set-up. */
    double refWallSec = 0.0;
    double refSetupSec = 0.0;
    double refRunSec = 0.0;
    std::vector<double> refCaseMs;
    std::string digest;

    // sweeps
    std::vector<CaseResult> results;
    std::uint64_t sims = 0;        //!< simulations in the case phase
    std::uint64_t cacheHits = 0;   //!< top-level cases served cached
    double traceSec = 0.0;
    std::uint64_t traceRecords = 0;
    double traceMb = 0.0;

    // serving
    std::vector<gqos::ServingReport> reports;
};

/** Factor that scales host time measured while probe slices took
 *  @p slices to the reference host. */
double
speedScale(const std::vector<double> &slices)
{
    return std::pow(referenceProbeSec / median(slices), hostSensitivity);
}

/** Probe a gap of @p r: @p n slices as a new group. Their host time. */
double
probeGap(HostProbe &probe, int n, Round &r)
{
    r.probes.emplace_back();
    probe.sample(n, r.probes.back());
    double sec = 0.0;
    for (double x : r.probes.back())
        sec += x;
    return sec;
}

/**
 * Fill @p r's reference-host times. Each piece is scaled by the probe
 * slices either side of it, so a host that changes speed within a
 * round is followed; what falls between pieces (cache flush, report
 * write) by all of the round's slices.
 */
void
scaleToReference(Round &r)
{
    const std::size_t extra = r.extraSetupSec.size();
    gqos_assert(r.probes.size() == extra + r.caseMs.size() + 2);
    auto around = [&r](std::size_t i) {
        std::vector<double> s = r.probes[i];
        s.insert(s.end(), r.probes[i + 1].begin(), r.probes[i + 1].end());
        return speedScale(s);
    };
    std::vector<double> all;
    for (const auto &g : r.probes)
        all.insert(all.end(), g.begin(), g.end());
    std::vector<double> setups;
    for (std::size_t k = 0; k < extra; ++k)
        setups.push_back(r.extraSetupSec[k] * around(k));
    const double setup = r.setupSec * around(extra);
    setups.push_back(setup);
    r.refSetupSec = median(setups);
    double rest = r.wallSec - r.setupSec;
    r.refRunSec = 0.0;
    for (std::size_t i = 0; i < r.caseMs.size(); ++i) {
        r.refCaseMs.push_back(r.caseMs[i] * around(extra + 1 + i));
        r.refRunSec += r.refCaseMs[i] / 1000.0;
        rest -= r.caseMs[i] / 1000.0;
    }
    r.refRunSec += std::max(0.0, rest) * speedScale(all);
    r.refWallSec = setup + r.refRunSec;
}

void
digestCases(const std::vector<SweepCase> &cases,
            const std::vector<CaseResult> &results, Digest &d)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        d.add(cases[i].describe());
        for (const auto &k : results[i].kernels) {
            d.add(k.ipc);
            d.add(k.ipcIsolated);
            d.add(k.goalIpc);
        }
        d.add(results[i].instrPerWatt);
        d.add(results[i].preemptions);
        d.add(results[i].dramPerKcycle);
    }
}

void
digestServing(const gqos::ServingReport &r, Digest &d)
{
    d.add(static_cast<std::uint64_t>(r.endCycle));
    d.add(static_cast<std::uint64_t>(r.finalLevel));
    d.add(r.levelChanges);
    d.add(static_cast<std::uint64_t>(r.drained));
    for (const auto &t : r.tenants) {
        d.add(t.name);
        for (std::uint64_t v :
             {t.arrivals, t.admitted, t.dispatched, t.completed,
              t.sloMet, t.rejectedQueueFull, t.rejectedShed,
              t.rejectedProjected, t.abandoned, t.droppedAtShutdown,
              t.maxQueueDepth, static_cast<std::uint64_t>(t.p50Latency),
              static_cast<std::uint64_t>(t.p99Latency),
              static_cast<std::uint64_t>(t.maxLatency)})
            d.add(v);
    }
}

/** Cases in a run report, set-up baselines ("even" single-kernel
 *  runs) excluded. */
std::size_t
reportCases(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string keyTag = "{\"key\":\"";
    std::size_t n = 0;
    for (std::size_t pos = text.find(keyTag); pos != std::string::npos;
         pos = text.find(keyTag, pos)) {
        pos += keyTag.size();
        n += text.compare(pos, 5, "even|") != 0;
    }
    return n;
}

/** Fresh, empty directory @p dir. */
gqos::Result<void>
freshDir(const fs::path &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) {
        return gqos::Error::format(gqos::ErrorCode::IoError,
                                   "cannot create '%s' (%s)",
                                   dir.c_str(), ec.message().c_str());
    }
    return {};
}

/**
 * What a sweep round sets up: telemetry (sweep_retrace) and a Runner
 * with every kernel's isolated baseline computed. Heap-held, so the
 * Runner's pointers into it stay valid.
 */
struct SweepSetup
{
    gqos::MetricsRegistry registry;
    gqos::RunReport report;
    std::unique_ptr<gqos::JsonlTraceSink> jsonl;
    std::unique_ptr<TimingTraceSink> timing;
    std::string tracePath;
    std::optional<gqos::Runner> runner;
};

/** Set a sweep round up in the fresh directory @p dir. */
gqos::Result<std::unique_ptr<SweepSetup>>
setUpSweep(const std::vector<SweepCase> &cases, bool retrace,
           const fs::path &dir, SpanRecorder &spans)
{
    auto setupSpan = spans.open("bench", "setup");
    auto st = std::make_unique<SweepSetup>();
    gqos::Runner::Options o = caseOptions();
    o.cacheDir = (dir / "cache").string();
    o.useCache = !retrace;
    if (retrace) {
        st->tracePath = (dir / "epochs.jsonl").string();
        auto sink = gqos::JsonlTraceSink::open(st->tracePath);
        if (!sink.ok())
            return sink.error();
        st->jsonl = std::move(sink).value();
        st->timing = std::make_unique<TimingTraceSink>(st->jsonl.get());
        o.traceSink = st->timing.get();
        o.tracePath = st->tracePath;
        o.metrics = &st->registry;
        o.report = &st->report;
    }
    auto made = [&] {
        auto s = spans.open("harness", "Runner::make");
        return gqos::Runner::make(o);
    }();
    if (!made.ok())
        return made.error();
    st->runner.emplace(std::move(made).value());
    for (const std::string &k : kernelsOf(cases)) {
        auto s = spans.open("harness", "Runner::isolatedIpc");
        auto iso = st->runner->isolatedIpc(k);
        if (!iso.ok())
            return iso.error();
    }
    return st;
}

/**
 * Time @p set_up (setupRepeats - 1) times, with a probe gap after
 * each, and drop what it builds once timed: set-up is short, so a
 * round takes several samples of it before its own.
 */
template <typename Fn>
gqos::Result<void>
timeExtraSetups(Fn &&set_up, HostProbe &probe, Round &r)
{
    for (int k = 1; k < setupRepeats; ++k) {
        const Clock::time_point t0 = Clock::now();
        auto built = set_up(k);
        r.extraSetupSec.push_back(secondsSince(t0));
        if (!built.ok())
            return built.error();
        probeGap(probe, probesPerGap, r);
    }
    return {};
}

/**
 * One sweep round: one runSweep call per case on one worker, with
 * host-speed probe slices before each. sweep_cold: fresh cache,
 * telemetry off. sweep_retrace: cache off, JSONL trace, metrics and
 * run report attached, so every case re-simulates its baselines with
 * the cycle-attribution profiler on.
 */
gqos::Result<Round>
sweepRound(const std::vector<SweepCase> &cases, bool retrace,
           const fs::path &dir, SpanRecorder &spans, HostProbe &probe)
{
    Round r;
    auto roundSpan = spans.open("bench", "round");
    probeGap(probe, probesAtEdge, r);
    for (int k = 1; k < setupRepeats; ++k) {
        if (auto ok = freshDir(dir / format("setup-%d", k)); !ok.ok())
            return ok.error();
    }
    SpanRecorder untraced(false);
    auto extra = timeExtraSetups(
        [&](int k) {
            return setUpSweep(cases, retrace, dir / format("setup-%d", k),
                              untraced);
        },
        probe, r);
    if (!extra.ok())
        return extra.error();

    if (auto ok = freshDir(dir / "round"); !ok.ok())
        return ok.error();
    const Clock::time_point t0 = Clock::now();
    double probeSec = 0.0;
    auto setUp = setUpSweep(cases, retrace, dir / "round", spans);
    if (!setUp.ok())
        return setUp.error();
    r.setupSec = secondsSince(t0);
    SweepSetup &st = *setUp.value();
    gqos::Runner *runner = &*st.runner;

    const int simsBefore = runner->simulatedCases();
    gqos::SweepOptions so;
    so.progress = false;
    so.label = retrace ? "sweep_retrace" : "sweep_cold";
    so.jobs = 1;
    gqos::SweepStats stats;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        probeSec += probeGap(probe, probesPerGap, r);
        auto s = spans.open("harness", "runSweep", i + 1);
        const Clock::time_point tc = Clock::now();
        auto res = gqos::runSweep(*runner, {cases[i]}, so, &stats);
        const double secs = secondsSince(tc);
        if (!res.ok())
            return res.error();
        r.caseMs.push_back(1000.0 * secs);
        r.cacheHits += stats.cacheHits;
        r.results.push_back(std::move(res.value()[0]));
    }
    if (retrace) {
        const std::string reportPath = (dir / "report.json").string();
        {
            auto s = spans.open("harness", "RunReport::writeFile");
            if (auto w = st.report.writeFile(reportPath, &st.registry);
                !w.ok())
                return w.error();
        }
        st.timing->flush();
        if (const std::size_t n = reportCases(reportPath);
            n != cases.size()) {
            return gqos::Error::format(
                gqos::ErrorCode::Internal,
                "run report holds %zu cases, expected %zu", n,
                cases.size());
        }
    } else {
        auto s = spans.open("harness", "ResultCache::flush");
        runner->sharedCache()->flush();
    }
    r.wallSec = secondsSince(t0) - probeSec;
    probeGap(probe, probesAtEdge, r);
    scaleToReference(r);
    r.sims = static_cast<std::uint64_t>(runner->simulatedCases() -
                                        simsBefore);
    r.simCycles = static_cast<double>(cases.size()) * caseCycles;
    if (retrace) {
        r.traceSec = st.timing->seconds();
        r.traceRecords = st.timing->records();
        std::error_code ec;
        r.traceMb = static_cast<double>(fs::file_size(st.tracePath, ec)) /
                    (1024.0 * 1024.0);
    }
    Digest d;
    digestCases(cases, r.results, d);
    r.digest = d.hex();
    return r;
}

/** What a serving round sets up: arrival streams and drivers. */
struct ServingSetup
{
    std::vector<std::vector<gqos::Arrival>> streams;
    std::vector<std::unique_ptr<gqos::ServingDriver>> drivers;
};

gqos::Result<ServingSetup>
setUpServing(const std::vector<LoadPoint> &points, SpanRecorder &spans)
{
    const std::vector<gqos::TenantSpec> mix = gqos::defaultTenantMix();
    auto setupSpan = spans.open("bench", "setup");
    ServingSetup st;
    for (std::size_t p = 0; p < points.size(); ++p) {
        {
            auto s = spans.open("serving", "generateArrivals", p + 1);
            st.streams.push_back(gqos::generateArrivals(points[p].arrivals));
        }
        auto s = spans.open("serving", "ServingDriver::make", p + 1);
        gqos::ServingOptions so;
        so.caseKey = format("serving|x%.2f|%zu", points[p].load, p);
        auto d = gqos::ServingDriver::make(mix, so);
        if (!d.ok())
            return d.error();
        st.drivers.push_back(std::move(d).value());
    }
    return st;
}

/** One serving round: every load point, one after another. */
gqos::Result<Round>
servingRound(const std::vector<LoadPoint> &points, SpanRecorder &spans,
             HostProbe &probe)
{
    Round r;
    auto roundSpan = spans.open("bench", "round");
    probeGap(probe, probesAtEdge, r);
    SpanRecorder untraced(false);
    auto extra = timeExtraSetups(
        [&](int) { return setUpServing(points, untraced); },
        probe, r);
    if (!extra.ok())
        return extra.error();

    const Clock::time_point t0 = Clock::now();
    double probeSec = 0.0;
    auto setUp = setUpServing(points, spans);
    if (!setUp.ok())
        return setUp.error();
    r.setupSec = secondsSince(t0);
    const auto &streams = setUp.value().streams;
    const auto &drivers = setUp.value().drivers;
    Digest dg;
    for (std::size_t p = 0; p < points.size(); ++p) {
        probeSec += probeGap(probe, probesPerGap, r);
        auto s = spans.open("serving", "ServingDriver::run", p + 1);
        const Clock::time_point tc = Clock::now();
        auto rep = drivers[p]->run(streams[p], nullptr);
        const double secs = secondsSince(tc);
        if (!rep.ok())
            return rep.error();
        r.caseMs.push_back(1000.0 * secs);
        r.caseLoad.push_back(points[p].load);
        r.simCycles += static_cast<double>(rep.value().endCycle);
        digestServing(rep.value(), dg);
        r.reports.push_back(std::move(rep).value());
    }
    r.wallSec = secondsSince(t0) - probeSec;
    probeGap(probe, probesAtEdge, r);
    scaleToReference(r);
    r.digest = dg.hex();
    return r;
}

/** Conservation identities bench_serving asserts, plus no stalls. */
std::vector<std::string>
checkServing(const Round &r, const std::vector<LoadPoint> &points)
{
    const std::vector<gqos::TenantSpec> mix = gqos::defaultTenantMix();
    std::vector<std::string> bad;
    for (std::size_t p = 0; p < r.reports.size(); ++p) {
        const gqos::ServingReport &rep = r.reports[p];
        std::uint64_t arrivals = 0;
        for (std::size_t t = 0; t < rep.tenants.size(); ++t) {
            const gqos::TenantServingStats &s = rep.tenants[t];
            const std::uint64_t rejected = s.rejectedQueueFull +
                                           s.rejectedShed +
                                           s.rejectedProjected;
            arrivals += s.arrivals;
            if (s.arrivals != s.admitted + rejected ||
                s.admitted != s.completed + s.abandoned +
                                  s.droppedAtShutdown ||
                s.maxQueueDepth > mix[t].queueCap || s.stalled) {
                bad.push_back(format("load point %zu tenant %s breaks "
                                     "conservation",
                                     p, s.name.c_str()));
            }
        }
        if (rep.engineStalled || rep.anyTenantStalled)
            bad.push_back(format("load point %zu stalled", p));
        const std::size_t expected =
            gqos::generateArrivals(points[p].arrivals).size();
        if (arrivals != expected) {
            bad.push_back(format("load point %zu counted %llu of %zu "
                                 "arrivals",
                                 p,
                                 static_cast<unsigned long long>(
                                     arrivals),
                                 expected));
        }
    }
    return bad;
}

/**
 * Re-run a seeded subsample of @p r's cases under the reference
 * engine (no cache) and through the benchmark's own per-cycle
 * replay; both must reproduce the round's results bit for bit.
 */
std::vector<std::string>
gateSweep(const std::vector<SweepCase> &cases, const Round &r,
          std::uint64_t seed, std::size_t &checked)
{
    std::vector<std::string> bad;
    gqos::Runner::Options o = caseOptions();
    o.useCache = false;
    o.engine = gqos::EngineKind::Reference;
    auto ref = gqos::Runner::make(o);
    if (!ref.ok())
        return {ref.error().describe()};
    auto cfg = gqos::configByName(o.configName);
    for (std::size_t i :
         subsample(cases.size(), gateCases, gqos::mixSeed(seed, 0x6a7e))) {
        checked++;
        const SweepCase &c = cases[i];
        auto refRes = ref.value().run(c.kernels, c.goals, c.policy);
        if (!refRes.ok() || !sameCaseResult(refRes.value(), r.results[i]))
            bad.push_back("reference engine differs on " + c.describe());
        std::vector<double> iso;
        for (const auto &k : r.results[i].kernels)
            iso.push_back(k.ipcIsolated);
        ReplayOptions ro;
        ro.mode = ReplayMode::PerCycle;
        auto rep = replayCase(cfg.value(), caseCycles, caseWarmup, c,
                              iso, ro);
        if (!rep.ok() ||
            !sameBits(rep.value().result, cachedOf(r.results[i])))
            bad.push_back("per-cycle replay differs on " + c.describe());
    }
    return bad;
}

/** Sums over the traced run's replays. */
struct ReplayTotals
{
    double engineSec = 0.0;        //!< Engine mode, profiler off
    double engineAcctSec = 0.0;    //!< Engine mode, profiler on
    double stepSec = 0.0;
    double onCycleSec = 0.0;
    double perCycleCycles = 0.0;
    double stepped = 0.0, skipped = 0.0, smSkipped = 0.0;
    double smSteppedSlots = 0.0;   //!< stepped cycles x SMs
    double controlPoints = 0.0;
    double smCycles = 0.0, smActive = 0.0, issued = 0.0;
    double preemptions = 0.0;
    double l1Acc = 0.0, l1Miss = 0.0, l2Acc = 0.0, l2Miss = 0.0;
    double dram = 0.0, cycles = 0.0;
    double gated = 0.0;
    int items = 0;
    gqos::MetricsRegistry qos;
    std::vector<std::string> mismatches;

    /** Fold one item's three replays (event, event + profiler,
     *  per-cycle) into the totals. */
    void
    add(const ReplayStats &a, const ReplayStats &b, const ReplayStats &c,
        const std::string &what)
    {
        engineSec += a.advanceSec;
        engineAcctSec += b.advanceSec;
        stepSec += c.stepSec;
        onCycleSec += c.onCycleSec;
        perCycleCycles += static_cast<double>(c.cycles);
        stepped += static_cast<double>(a.engine.steppedCycles);
        skipped += static_cast<double>(a.engine.skippedCycles);
        smSkipped += static_cast<double>(a.smSkipped);
        smSteppedSlots +=
            static_cast<double>(a.engine.steppedCycles) * a.numSms;
        controlPoints += static_cast<double>(a.engine.controlPoints);
        smCycles += static_cast<double>(a.sm.cycles);
        smActive += static_cast<double>(a.sm.activeCycles);
        issued += static_cast<double>(
            a.sm.issuedAlu + a.sm.issuedSfu + a.sm.issuedSmem +
            a.sm.issuedLoads + a.sm.issuedStores);
        preemptions += static_cast<double>(a.sm.preemptions);
        l1Acc += static_cast<double>(a.mem.l1Accesses);
        l1Miss += static_cast<double>(a.mem.l1Misses);
        l2Acc += static_cast<double>(a.l2Accesses);
        l2Miss += static_cast<double>(a.l2Misses);
        dram += static_cast<double>(a.dramAccesses);
        cycles += static_cast<double>(a.cycles);
        gated += a.gatedFraction;
        items++;
        if (a.cycles != c.cycles || a.sm.cycles != c.sm.cycles ||
            a.sm.activeCycles != c.sm.activeCycles ||
            a.dramAccesses != c.dramAccesses ||
            !sameBits(a.result, b.result) || !sameBits(a.result, c.result))
            mismatches.push_back("replay modes disagree on " + what);
    }
};

/** Three replays of one sweep case. */
void
replaySweepCase(const SweepCase &c, const CaseResult &res,
                ReplayTotals &tot, SpanRecorder &spans)
{
    auto cfg = gqos::configByName("default");
    std::vector<double> iso;
    for (const auto &k : res.kernels)
        iso.push_back(k.ipcIsolated);
    ReplayOptions event;
    event.metrics = &tot.qos;
    ReplayOptions acct;
    acct.accounting = true;
    ReplayOptions perCycle;
    perCycle.mode = ReplayMode::PerCycle;
    auto replay = [&](const ReplayOptions &ro) {
        auto s = spans.open(ro.mode == ReplayMode::Engine ? "engine" : "gpu",
                            "replayCase " + c.describe());
        return replayCase(cfg.value(), caseCycles, caseWarmup, c, iso, ro);
    };
    auto a = replay(event);
    auto b = replay(acct);
    auto p = replay(perCycle);
    if (!a.ok() || !b.ok() || !p.ok()) {
        tot.mismatches.push_back("replay failed on " + c.describe());
        return;
    }
    if (!sameBits(a.value().result, cachedOf(res)))
        tot.mismatches.push_back("replay differs from Runner::run on " +
                                 c.describe());
    tot.add(a.value(), b.value(), p.value(), c.describe());
}

/** Three replays of one serving stream (first arrivals only). */
void
replayServingPoint(const LoadPoint &pt, ReplayTotals &tot,
                   SpanRecorder &spans)
{
    const std::vector<gqos::TenantSpec> mix = gqos::defaultTenantMix();
    auto driver = gqos::ServingDriver::make(mix, gqos::ServingOptions{});
    if (!driver.ok()) {
        tot.mismatches.push_back(driver.error().describe());
        return;
    }
    std::vector<double> iso;
    for (int t = 0; t < driver.value()->numTenants(); ++t)
        iso.push_back(driver.value()->isolatedIpc(t));
    std::vector<gqos::Arrival> arrivals =
        gqos::generateArrivals(pt.arrivals);
    arrivals.resize(std::min(arrivals.size(), servingReplayArrivals));
    ReplayOptions event;
    event.metrics = &tot.qos;
    ReplayOptions acct;
    acct.accounting = true;
    ReplayOptions perCycle;
    perCycle.mode = ReplayMode::PerCycle;
    auto replay = [&](const ReplayOptions &ro) {
        auto s = spans.open(ro.mode == ReplayMode::Engine ? "engine" : "gpu",
                            format("replayServing x%.2f", pt.load));
        return replayServing(mix, iso, arrivals, gqos::ServingOptions{},
                             ro);
    };
    auto a = replay(event);
    auto b = replay(acct);
    auto p = replay(perCycle);
    if (!a.ok() || !b.ok() || !p.ok() || a.value().stalled) {
        tot.mismatches.push_back(format("serving replay failed at x%.2f",
                                        pt.load));
        return;
    }
    tot.add(a.value(), b.value(), p.value(),
            format("serving x%.2f", pt.load));
}

void
addMetric(WorkloadOutput &out, const std::string &name,
          const std::string &unit, double value, std::string note = "")
{
    out.metrics.push_back({name, unit, value, std::move(note)});
}

void
addRatio(WorkloadOutput &out, const std::string &name, const Ratio &r)
{
    addMetric(out, name, "ratio", r.value(), r.describe());
}

template <typename Fn>
std::vector<double>
collect(const std::vector<Round> &rounds, Fn &&fn)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(fn(r));
    return v;
}

double
perRound(const SpanRecorder &spans, const std::string &name,
         std::size_t rounds)
{
    return rounds ? spans.totalSeconds(name) / rounds : 0.0;
}

/** The end-to-end metrics, from untraced rounds. */
void
endToEnd(const std::vector<Round> &rounds, WorkloadOutput &out)
{
    // Every round runs the same cases in the same order: a case's host
    // time is its median over rounds, so a burst of interference on
    // the host does not land in the tail as if a case were slow.
    std::vector<double> caseMs;
    for (std::size_t i = 0; i < rounds.front().caseMs.size(); ++i) {
        caseMs.push_back(median(collect(rounds, [i](const Round &r) {
            return r.refCaseMs[i];
        })));
    }
    const TailPercentile tail = tailPercentile(caseMs);
    const std::string n = format("%zu rounds", rounds.size());
    addMetric(out, "wall_s", "s",
              median(collect(rounds, [](const Round &r) {
                  return r.refWallSec;
              })),
              "median of " + n);
    addMetric(out, "setup_s", "s",
              median(collect(rounds, [](const Round &r) {
                  return r.refSetupSec;
              })),
              "median of " + n);
    addMetric(out, "sim_kcycles_per_s", "kcycle/s",
              median(collect(rounds, [](const Round &r) {
                  return r.simCycles / 1000.0 /
                         std::max(1e-9, r.refRunSec);
              })),
              "median of " + n);
    addMetric(out, "case_ms_p50", "ms", median(caseMs),
              format("median of %zu per-case medians", caseMs.size()));
    addMetric(out, "case_ms_p95", "ms", tail.value,
              format("p%d of %zu per-case medians, %zu beyond", tail.pct,
                     tail.samples, tail.beyond));
    addMetric(out, "peak_rss_mb", "MB", peakRssMb(), "ru_maxrss");
}

/** Modelled QoS outcomes of rollover cases (deterministic per seed). */
void
modelledSweep(const std::vector<SweepCase> &cases, const Round &r,
              WorkloadOutput &out)
{
    Ratio reach, tput;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cases[i].policy != "rollover")
            continue;
        reach.num += r.results[i].allReached();
        reach.base += 1.0;
        tput.num += r.results[i].nonQosThroughput();
        tput.base += 1.0;
    }
    addRatio(out, "model.qos_reach_rollover", reach);
    addMetric(out, "model.nonqos_tput_rollover", "ratio", tput.value(),
              format("mean of %.0f rollover cases", tput.base));
}

/** The per-layer metrics, from traced rounds and replays. */
void
perLayer(const RunConfig &cfg, const std::vector<Round> &traced,
         const std::vector<Round> &untraced, const SpanRecorder &spans,
         const std::vector<SweepCase> &cases, ReplayTotals &tot,
         WorkloadOutput &out)
{
    const std::size_t nr = traced.size();
    const bool sweep = cfg.workload != "serving_overload";
    double caseCount = 0.0, hits = 0.0, sims = 0.0, traceSec = 0.0,
           traceRecords = 0.0, traceMb = 0.0;
    std::vector<double> probeSec;
    for (const Round &r : traced) {
        caseCount += static_cast<double>(r.caseMs.size());
        hits += static_cast<double>(r.cacheHits);
        sims += static_cast<double>(r.sims);
        for (const auto &g : r.probes)
            probeSec.insert(probeSec.end(), g.begin(), g.end());
        traceSec += r.traceSec;
        traceRecords += static_cast<double>(r.traceRecords);
        traceMb += r.traceMb;
    }
    const double perR = nr ? 1.0 / nr : 0.0;

    addMetric(out, "harness.runner_make_s", "s",
              perRound(spans, "Runner::make", nr), "per round");
    addMetric(out, "harness.baseline_s", "s",
              perRound(spans, "Runner::isolatedIpc", nr),
              "per round, set-up pre-pass");
    addMetric(out, "harness.cache_flush_s", "s",
              perRound(spans, "ResultCache::flush", nr), "per round");
    addRatio(out, "harness.cache_hit_ratio",
             {hits, sweep ? caseCount : 0.0});
    addRatio(out, "harness.sims_per_case",
             {sims, sweep ? caseCount : 0.0});
    addMetric(out, "harness.report_write_s", "s",
              perRound(spans, "RunReport::writeFile", nr), "per round");

    addMetric(out, "engine.run_until_s", "s", tot.engineSec,
              format("%d replays", tot.items));
    addMetric(out, "engine.ns_per_stepped_cycle", "ns",
              tot.stepped > 0 ? 1e9 * tot.engineSec / tot.stepped : 0.0,
              format("%.0f stepped cycles", tot.stepped));
    addRatio(out, "engine.skip_ratio",
             {tot.skipped, tot.stepped + tot.skipped});
    addRatio(out, "engine.sm_skip_ratio",
             {tot.smSkipped, tot.smSteppedSlots});
    addMetric(out, "engine.control_points", "count", tot.controlPoints);

    addMetric(out, "gpu.step_ns", "ns",
              tot.perCycleCycles > 0
                  ? 1e9 * tot.stepSec / tot.perCycleCycles
                  : 0.0,
              format("%.0f cycles", tot.perCycleCycles));
    addRatio(out, "sm.active_ratio", {tot.smActive, tot.smCycles});
    addRatio(out, "sm.issued_per_cycle", {tot.issued, tot.smCycles});
    addMetric(out, "sm.preemptions", "count", tot.preemptions);

    addRatio(out, "mem.l1_miss_ratio", {tot.l1Miss, tot.l1Acc});
    addRatio(out, "mem.l2_miss_ratio", {tot.l2Miss, tot.l2Acc});
    addMetric(out, "mem.dram_per_kcycle", "1/kcycle",
              tot.cycles > 0 ? 1000.0 * tot.dram / tot.cycles : 0.0);

    addRatio(out, "policy.on_cycle_share",
             {tot.onCycleSec, tot.onCycleSec + tot.stepSec});
    addMetric(out, "qos.epochs", "count",
              static_cast<double>(tot.qos.counter("qos.epochs").value()));
    addMetric(out, "qos.refill_grants", "count",
              static_cast<double>(
                  tot.qos.counter("qos.refill_grants").value()));
    addMetric(out, "qos.tb_swaps", "count",
              static_cast<double>(tot.qos.counter("qos.tb_swaps").value()));
    addMetric(out, "qos.gated_fraction", "ratio",
              tot.items ? tot.gated / tot.items : 0.0,
              format("mean of %d replays", tot.items));

    addMetric(out, "telemetry.profiler_overhead", "ratio",
              tot.engineSec > 0 ? tot.engineAcctSec / tot.engineSec - 1.0
                                : 0.0,
              "replay with cycle accounting on / off - 1");
    addMetric(out, "telemetry.trace_s", "s", traceSec * perR,
              "per round, inside the JSONL sink");
    addMetric(out, "telemetry.trace_records", "count",
              traceRecords * perR, "per round");
    addMetric(out, "telemetry.trace_mb", "MB", traceMb * perR,
              "per round");

    double x1 = 0.0, x4 = 0.0, runSec = 0.0, endCycles = 0.0,
           arrivals = 0.0, admitted = 0.0, rejected = 0.0,
           abandoned = 0.0;
    for (const Round &r : traced) {
        for (std::size_t i = 0; i < r.caseMs.size() && !sweep; ++i) {
            (r.caseLoad[i] < 2.0 ? x1 : x4) += r.caseMs[i] / 1000.0;
            runSec += r.caseMs[i] / 1000.0;
        }
        for (const gqos::ServingReport &rep : r.reports) {
            endCycles += static_cast<double>(rep.endCycle);
            for (const auto &t : rep.tenants) {
                arrivals += static_cast<double>(t.arrivals);
                admitted += static_cast<double>(t.admitted);
                rejected += static_cast<double>(
                    t.rejectedQueueFull + t.rejectedShed +
                    t.rejectedProjected);
                abandoned += static_cast<double>(t.abandoned);
            }
        }
    }
    addMetric(out, "serving.arrivals_gen_s", "s",
              perRound(spans, "generateArrivals", nr), "per round");
    addMetric(out, "serving.driver_make_s", "s",
              perRound(spans, "ServingDriver::make", nr), "per round");
    addMetric(out, "serving.run_s.x1", "s", x1 * perR, "per round");
    addMetric(out, "serving.run_s.x4", "s", x4 * perR, "per round");
    addMetric(out, "serving.host_us_per_kcycle", "us/kcycle",
              endCycles > 0 ? 1e6 * runSec / (endCycles / 1000.0) : 0.0,
              format("%.0f simulated cycles", endCycles));
    addRatio(out, "serving.admitted_ratio", {admitted, arrivals});
    addMetric(out, "serving.rejected", "count", rejected * perR,
              "per round");
    addMetric(out, "serving.abandoned", "count", abandoned * perR,
              "per round");

    // Modelled outcomes, deterministic for a seed.
    if (sweep && !traced.empty()) {
        modelledSweep(cases, traced.front(), out);
    } else {
        addRatio(out, "model.qos_reach_rollover", {});
        addMetric(out, "model.nonqos_tput_rollover", "ratio", 0.0);
    }
    Ratio slo;
    for (const gqos::ServingReport &rep :
         traced.empty() ? std::vector<gqos::ServingReport>{}
                        : traced.front().reports) {
        for (const auto &t : rep.tenants) {
            if (t.qosClass != gqos::QosClass::Guaranteed)
                continue;
            slo.num += static_cast<double>(t.sloMet);
            slo.base += static_cast<double>(t.arrivals);
        }
    }
    addRatio(out, "model.slo_attain_guaranteed", slo);

    // Tracing cost and where host time went, by layer (self time).
    const double tracedWall = median(
        collect(traced, [](const Round &r) { return r.refWallSec; }));
    const double plainWall = median(
        collect(untraced, [](const Round &r) { return r.refWallSec; }));
    addMetric(out, "bench.probe_slice_us", "us", 1e6 * median(probeSec),
              format("median of %zu host-speed probe slices, %.0f us on "
                     "the reference host",
                     probeSec.size(), 1e6 * referenceProbeSec));
    addMetric(out, "bench.trace_overhead", "ratio",
              plainWall > 0 ? tracedWall / plainWall - 1.0 : 0.0,
              format("median traced %.4fs vs untraced %.4fs round on "
                     "the reference host",
                     tracedWall, plainWall));
    for (const char *layer : {"bench", "harness", "serving"}) {
        double self = 0.0;
        for (const auto &[name, secs] : spans.selfSecondsByLayer()) {
            if (name == layer)
                self = secs;
        }
        addMetric(out, std::string("self_s.") + layer, "s",
                  self * perR, "per round");
    }
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep_cold", "serving_overload", "sweep_retrace"};
    return names;
}

bool
isMemoryBound(const std::string &kernel)
{
    static const std::set<std::string> memory = {"histo", "lbm", "sad",
                                                 "spmv", "stencil"};
    return memory.count(kernel) > 0;
}

std::vector<SweepCase>
sampleColdCases(std::uint64_t seed)
{
    gqos::Rng rng(gqos::mixSeed(seed, 0xc01d));
    std::vector<SweepCase> out;
    for (auto &cls : pairsByClass()) {
        shuffle(cls, rng);
        const std::uint64_t off = rng.below(policies.size());
        for (std::size_t j = 0; j < cls.size(); ++j) {
            out.push_back({{cls[j].first, cls[j].second},
                           {pick(gqos::paperGoalSweep(), rng), 0.0},
                           policies[(j + off) % policies.size()],
                           ""});
        }
    }
    auto trios = gqos::parboilTrios();
    shuffle(trios, rng);
    const std::uint64_t off = rng.below(policies.size());
    for (std::size_t j = 0; j < trios.size(); ++j) {
        out.push_back(trioCase(trios[j], rng.below(3), j % 2 == 1,
                               policies[(j / 2 + off) % policies.size()],
                               rng));
    }
    return out;
}

std::vector<SweepCase>
sampleRetraceCases(std::uint64_t seed)
{
    gqos::Rng rng(gqos::mixSeed(seed, 0x5e7a));
    std::vector<std::string> compute, memory;
    for (const std::string &k : gqos::parboilNames())
        (isMemoryBound(k) ? memory : compute).push_back(k);

    // Pairs: per class, QoS kernel i runs beside partner perm[i], a
    // seeded permutation (no kernel beside itself). Every kernel is
    // the QoS kernel of one pair and the partner of one pair in each
    // class it belongs to, whatever the seed.
    std::vector<SweepCase> out;
    for (int cls = 0; cls < 4; ++cls) {
        const auto &qos = cls < 2 ? compute : memory;
        const auto &bg = cls % 2 == 0 ? compute : memory;
        std::vector<std::size_t> perm(bg.size());
        for (;;) {
            for (std::size_t i = 0; i < perm.size(); ++i)
                perm[i] = i;
            shuffle(perm, rng);
            bool selfPair = false;
            for (std::size_t i = 0; i < perm.size(); ++i)
                selfPair = selfPair || qos[i] == bg[perm[i]];
            if (!selfPair)
                break;
        }
        std::vector<std::string> order = policies;
        shuffle(order, rng);
        for (std::size_t i = 0; i < qos.size(); ++i) {
            out.push_back({{qos[i], bg[perm[i]]},
                           {pick(gqos::paperGoalSweep(), rng), 0.0},
                           order[i],
                           ""});
        }
    }

    // Trios: ten of the paper's trios in which every kernel appears
    // exactly three times (seeded greedy search with restarts).
    const std::size_t numTrios = 2 * policies.size();
    std::vector<std::array<std::string, 3>> chosen;
    for (int attempt = 0; attempt < 10000 && chosen.size() < numTrios;
         ++attempt) {
        auto trios = gqos::parboilTrios();
        shuffle(trios, rng);
        chosen.clear();
        std::map<std::string, int> uses;
        for (const auto &t : trios) {
            if (uses[t[0]] < 3 && uses[t[1]] < 3 && uses[t[2]] < 3) {
                chosen.push_back(t);
                for (const std::string &k : t)
                    uses[k]++;
            }
        }
    }
    chosen.resize(numTrios);
    const std::uint64_t off = rng.below(policies.size());
    for (std::size_t j = 0; j < numTrios; ++j) {
        out.push_back(trioCase(chosen[j], rng.below(3), j % 2 == 1,
                               policies[(j / 2 + off) % policies.size()],
                               rng));
    }
    return out;
}

std::vector<LoadPoint>
servingLoadPoints(std::uint64_t seed)
{
    const int tenants =
        static_cast<int>(gqos::defaultTenantMix().size());
    std::vector<LoadPoint> out;
    for (int s = 0; s < servingStreamsPerLoad; ++s) {
        for (double load : {1.0, 4.0}) {
            LoadPoint p;
            p.load = load;
            p.arrivals.kind = gqos::ArrivalKind::Poisson;
            p.arrivals.ratePerKcycle = servingBaseRate * load;
            p.arrivals.numTenants = tenants;
            p.arrivals.seed = gqos::mixSeed(seed, 0x5e27, s);
            const double launches =
                servingLaunchesAt1x * (load > 1.0 ? 2.0 : 1.0);
            p.arrivals.horizon = static_cast<Cycle>(std::ceil(
                launches * 1000.0 / (p.arrivals.ratePerKcycle * tenants)));
            out.push_back(p);
        }
    }
    return out;
}

gqos::Result<WorkloadOutput>
runWorkload(const RunConfig &cfg)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), cfg.workload) ==
        names.end()) {
        return gqos::Error::format(gqos::ErrorCode::NotFound,
                                   "unknown workload '%s'",
                                   cfg.workload.c_str());
    }
    const bool serving = cfg.workload == "serving_overload";
    const bool retrace = cfg.workload == "sweep_retrace";
    const std::vector<SweepCase> cases =
        serving ? std::vector<SweepCase>{}
        : retrace ? sampleRetraceCases(cfg.seed)
                  : sampleColdCases(cfg.seed);
    const std::vector<LoadPoint> points =
        serving ? servingLoadPoints(cfg.seed) : std::vector<LoadPoint>{};

    const std::size_t perRoundWork = serving ? points.size() : cases.size();
    const char *unit = serving ? "load points" : "cases";
    WorkloadOutput out;
    out.log.push_back("host " + hostFingerprintJson());
    out.log.push_back(format(
        "workload %s seed %llu: %zu %s per round, one thread",
        cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
        perRoundWork, unit));

    HostProbe probe;
    SpanRecorder untracedSpans(false);
    SpanRecorder tracedSpans(true);
    std::vector<Round> untraced, traced;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
        // The traced run alternates untraced and traced rounds so
        // the tracing overhead compares like with like.
        const bool tracedRound = cfg.trace && i % 2 == 1;
        SpanRecorder &spans = tracedRound ? tracedSpans : untracedSpans;
        const fs::path dir = fs::path(cfg.workdir) / format("round-%zu", i);
        auto r = serving
                     ? servingRound(points, spans, probe)
                     : sweepRound(cases, retrace, dir, spans, probe);
        std::error_code ec;
        fs::remove_all(dir, ec);
        out.attempted += perRoundWork;
        if (!r.ok()) {
            out.failed++;
            out.correct = false;
            out.log.push_back("FAILED: " + r.error().describe());
            return out;
        }
        (tracedRound ? traced : untraced).push_back(std::move(r).value());
        const std::size_t done = untraced.size() + traced.size();
        const bool whole = !cfg.trace || done % 2 == 0;
        if (whole && done >= minRounds && secondsSince(t0) >= cfg.seconds)
            break;
    }

    // ---- correctness gate ----
    const Round &first = untraced.front();
    std::vector<std::string> bad;
    for (const std::vector<Round> *set : {&untraced, &traced}) {
        for (const Round &r : *set) {
            if (r.digest != first.digest)
                bad.push_back("results differ between rounds");
            if (serving) {
                auto b = checkServing(r, points);
                bad.insert(bad.end(), b.begin(), b.end());
            }
        }
    }
    std::string gate = "conservation and no stall at every load point";
    if (!serving) {
        std::size_t checked = 0;
        auto b = gateSweep(cases, first, cfg.seed, checked);
        bad.insert(bad.end(), b.begin(), b.end());
        gate = format("%zu cases re-run under the reference engine and "
                      "replayed per cycle",
                      checked);
    }
    out.log.push_back(format("digest %s over %zu %s; gate: %s",
                             first.digest.c_str(), perRoundWork, unit,
                             gate.c_str()));

        std::string walls = "round wall s, measured / on the reference host:";
    for (const Round &r : untraced)
        walls += format(" %.4f/%.4f", r.wallSec, r.refWallSec);
    out.log.push_back(walls);
    if (!cfg.trace) {
        endToEnd(untraced, out);
    } else {
        ReplayTotals tot;
        if (serving) {
            for (const LoadPoint &p : {points[0], points[1]})
                replayServingPoint(p, tot, tracedSpans);
        } else {
            for (std::size_t i : subsample(cases.size(), replayCases,
                                           gqos::mixSeed(cfg.seed, 0x4e91)))
                replaySweepCase(cases[i], first.results[i], tot,
                                tracedSpans);
        }
        bad.insert(bad.end(), tot.mismatches.begin(),
                   tot.mismatches.end());
        perLayer(cfg, traced, untraced, tracedSpans, cases, tot, out);
        const std::string spansPath =
            (fs::path(cfg.spansOut.empty() ? cfg.workdir : cfg.spansOut) /
             format("%s-seed%llu.spans.json", cfg.workload.c_str(),
                    static_cast<unsigned long long>(cfg.seed)))
                .string();
        if (auto w = tracedSpans.writeJson(spansPath); !w.ok())
            bad.push_back(w.error().describe());
        else
            out.log.push_back("spans written to " + spansPath);
    }
    for (const std::string &b : bad)
        out.log.push_back("MISMATCH: " + b);
    out.correct = bad.empty();
    return out;
}

} // namespace perfbench
