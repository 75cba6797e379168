/**
 * @file
 * Harness implementation. The on-disk memoization lives in
 * harness/result_cache.{hh,cc}; the Runner translates cases into
 * cache keys, simulates on a miss, and derives the per-kernel
 * goal/baseline bookkeeping from the raw cached numbers.
 */

#include "harness/runner.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "gpu/gpu.hh"
#include "harness/run_report.hh"
#include "policy/policy_factory.hh"
#include "power/power_model.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

namespace gqos
{

bool
CaseResult::allReached() const
{
    for (const auto &k : kernels) {
        if (k.isQos && !k.reached())
            return false;
    }
    return true;
}

double
CaseResult::nonQosThroughput() const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &k : kernels) {
        if (!k.isQos) {
            sum += k.normalizedThroughput();
            n++;
        }
    }
    return n ? sum / n : 0.0;
}

double
CaseResult::qosOvershoot() const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &k : kernels) {
        if (k.isQos) {
            sum += k.normalizedToGoal();
            n++;
        }
    }
    return n ? sum / n : 0.0;
}

Result<Runner>
Runner::make(Options opts)
{
    return make(std::move(opts), nullptr);
}

Result<Runner>
Runner::make(Options opts, std::shared_ptr<ResultCache> cache)
{
    Result<GpuConfig> cfg = configByName(opts.configName);
    if (!cfg.ok())
        return cfg.error();
    if (opts.cycles < 1) {
        return Error::format(ErrorCode::InvalidArgument,
                             "cycles must be >= 1");
    }
    if (opts.warmupCycles > opts.cycles / 2) {
        return Error::format(
            ErrorCode::InvalidArgument,
            "warmupCycles (%llu) must be at most half of cycles "
            "(%llu)",
            static_cast<unsigned long long>(opts.warmupCycles),
            static_cast<unsigned long long>(opts.cycles));
    }
    if (opts.useCache) {
        std::error_code ec;
        std::filesystem::create_directories(opts.cacheDir, ec);
        if (ec) {
            return Error::format(ErrorCode::IoError,
                                 "cannot create cache dir '%s' (%s)",
                                 opts.cacheDir.c_str(),
                                 ec.message().c_str());
        }
    }
    return Runner(std::move(opts), std::move(cfg).value(),
                  std::move(cache));
}

Runner::Runner(Options opts, GpuConfig cfg,
               std::shared_ptr<ResultCache> cache)
    : opts_(std::move(opts)), cfg_(std::move(cfg))
{
    if (opts_.freePreemption) {
        cfg_.preemptDrainCycles = 0;
        cfg_.chargePreemptTraffic = false;
    }
    if (opts_.useCache) {
        cachePath_ = opts_.cacheDir + "/results-" +
                     opts_.configName + "-" +
                     std::to_string(opts_.cycles) + "-" +
                     std::to_string(opts_.warmupCycles) +
                     (opts_.freePreemption ? "-freepre" : "") +
                     ".csv";
        if (cache) {
            gqos_assert(cache->path() == cachePath_);
            cache_ = std::move(cache);
        } else {
            cache_ = ResultCache::open(cachePath_);
        }
    }
}

std::string
Runner::caseKey(const std::vector<std::string> &kernels,
                const std::vector<double> &goal_frac,
                const std::string &policy) const
{
    std::ostringstream os;
    os << policy;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", goal_frac[i]);
        os << "|" << kernels[i] << ":" << buf;
    }
    return os.str();
}

Result<Runner::Simulated>
Runner::simulate(const std::vector<std::string> &kernels,
                 const std::vector<double> &goal_frac,
                 const std::string &policy)
{
    const Cycle warmup = opts_.warmupCycles;
    std::vector<const KernelDesc *> descs;
    std::vector<QosSpec> specs;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        Result<const KernelDesc *> desc =
            findParboilKernel(kernels[i]);
        if (!desc.ok())
            return desc.error();
        descs.push_back(desc.value());
        if (goal_frac[i] > 0.0) {
            Result<double> iso = isolatedIpc(kernels[i]);
            if (!iso.ok())
                return iso.error();
            // A window too short to retire anything leaves no goal
            // to translate the fraction against.
            if (iso.value() <= 0.0) {
                return Error::format(
                    ErrorCode::InvalidArgument,
                    "QoS kernel '%s' has isolated IPC %g over the "
                    "measured window (cycles %llu to %llu); "
                    "lengthen the run",
                    kernels[i].c_str(), iso.value(),
                    static_cast<unsigned long long>(warmup),
                    static_cast<unsigned long long>(opts_.cycles));
            }
            specs.push_back(QosSpec::qos(goal_frac[i] *
                                         iso.value()));
        } else {
            specs.push_back(QosSpec::nonQos());
        }
    }

    Gpu gpu(cfg_);
    gpu.launch(descs);
    // Cycle attribution rides along whenever the run is observed
    // (metrics or --stats-json); simulation results are identical
    // either way, the profiler only counts.
    const bool accounting = opts_.metrics || opts_.report;
    if (accounting)
        gpu.setCycleAccounting(true);
    Result<std::unique_ptr<SharingPolicy>> pol =
        makePolicy(policy, specs, cfg_);
    if (!pol.ok())
        return pol.error();
    // Stamp this case's records so a shared multi-case trace file
    // stays attributable; the proxy must outlive the run loop.
    std::unique_ptr<CaseLabelingSink> case_sink;
    if (opts_.traceSink) {
        case_sink = std::make_unique<CaseLabelingSink>(
            opts_.traceSink, caseKey(kernels, goal_frac, policy));
        gpu.setSmSliceCallback(smSliceEmitter(case_sink.get()));
    }
    if (case_sink || opts_.metrics) {
        pol.value()->attachTelemetry(case_sink.get(),
                                     opts_.metrics);
    }
    pol.value()->onLaunch(gpu);

    // The stepping engine drives the cycle loop; its stall
    // watchdog aborts non-advancing simulations (a policy bug
    // gating every warp forever) with a structured error instead
    // of spinning: no instruction retired across a full epoch
    // window while live warps exist.
    SimEngine engine(opts_.engine, cfg_.epochLength);

    std::vector<std::uint64_t> instr_at_warmup(kernels.size(), 0);
    auto sim_t0 = std::chrono::steady_clock::now();
    bool stalled = engine.runUntil(gpu, *pol.value(), warmup);
    if (!stalled) {
        for (std::size_t i = 0; i < kernels.size(); ++i)
            instr_at_warmup[i] =
                gpu.threadInstrs(static_cast<KernelId>(i));
        stalled = engine.runUntil(gpu, *pol.value(), opts_.cycles);
    }
    double sim_wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - sim_t0).count();
    if (stalled) {
        return Error::format(
            ErrorCode::Stalled,
            "case '%s' retired no instruction for %llu "
            "cycles (at cycle %llu) with live warps; "
            "aborting the case",
            caseKey(kernels, goal_frac, policy).c_str(),
            static_cast<unsigned long long>(engine.stallWindow()),
            static_cast<unsigned long long>(gpu.now()));
    }

    pol.value()->onFinish(gpu);
    gpu.closeOpenSmSlices();

    Simulated out;
    out.simCyclesPerSec = sim_wall > 0.0
        ? static_cast<double>(gpu.now()) / sim_wall
        : 0.0;
    if (accounting)
        out.breakdown = exportCycleBreakdowns(gpu, opts_.metrics);

    Cycle window = opts_.cycles - warmup;
    CachedCase &c = out.numbers;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        std::uint64_t instr =
            gpu.threadInstrs(static_cast<KernelId>(i)) -
            instr_at_warmup[i];
        c.ipc.push_back(static_cast<double>(instr) / window);
    }
    c.instrPerWatt = instrPerWatt(gpu);
    std::uint64_t pre = 0;
    for (int s = 0; s < gpu.numSms(); ++s)
        pre += gpu.sm(s).stats().preemptions;
    c.preemptions = pre;
    c.dramPerKcycle = 1000.0 *
        gpu.mem().totalDramAccesses() / std::max<Cycle>(1, gpu.now());
    simulated_++;
    if (opts_.metrics) {
        opts_.metrics->counter("harness.cases_simulated").inc();
        exportEngineCounters(engine, gpu, *opts_.metrics);
    }
    if (opts_.verbose) {
        gqos_inform("simulated %s [%d done]",
                    caseKey(kernels, goal_frac, policy).c_str(),
                    simulated_);
    }
    return out;
}

Result<double>
Runner::isolatedIpc(const std::string &kernel)
{
    if (auto it = baselines_.find(kernel); it != baselines_.end())
        return it->second;
    Result<CaseResult> r = run({kernel}, {0.0}, "even");
    if (!r.ok())
        return r.error();
    const double ipc = r.value().kernels[0].ipc;
    baselines_.emplace(kernel, ipc);
    return ipc;
}

Result<CaseResult>
Runner::run(const std::vector<std::string> &kernels,
            const std::vector<double> &goal_frac,
            const std::string &policy)
{
    if (kernels.size() != goal_frac.size()) {
        return Error::format(
            ErrorCode::InvalidArgument,
            "kernels/goals size mismatch (%zu kernels, %zu goals)",
            kernels.size(), goal_frac.size());
    }
    if (kernels.empty()) {
        return Error::format(ErrorCode::InvalidArgument,
                             "need at least one kernel");
    }
    for (double g : goal_frac) {
        if (g < 0.0 || !std::isfinite(g)) {
            return Error::format(ErrorCode::InvalidArgument,
                                 "goal fraction %g is not a "
                                 "non-negative finite number", g);
        }
    }

    // Isolated-baseline lookups recurse through run(); only the
    // depth-1 (caller-visible) case feeds the report.
    runDepth_++;
    struct DepthGuard
    {
        int &d;
        ~DepthGuard() { d--; }
    } depth_guard{runDepth_};
    auto t0 = std::chrono::steady_clock::now();

    std::string key = caseKey(kernels, goal_frac, policy);
    // A cache hit leaves the host-side fields (sim rate, cycle
    // breakdown) empty.
    Simulated sim;
    CachedCase &c = sim.numbers;
    bool from_cache = cache_ && cache_->lookup(key, c) &&
                      c.ipc.size() == kernels.size();
    if (!from_cache) {
        Result<Simulated> fresh = simulate(kernels, goal_frac,
                                           policy);
        if (!fresh.ok())
            return fresh.error();
        sim = std::move(fresh).value();
        if (cache_) {
            cache_->insert(key, c);
            if (opts_.traceSink && !opts_.tracePath.empty())
                cache_->noteArtifact(key, opts_.tracePath);
        }
    } else {
        if (opts_.metrics)
            opts_.metrics->counter("harness.cache_hits").inc();
        if (opts_.traceSink &&
            cache_->claimTraceBypassWarning(key)) {
            // A hit skips the simulation, so nothing lands in the
            // requested trace. Point at the recorded artifact of
            // the run that produced the entry, if any.
            std::string prev = cache_->artifact(key);
            gqos_warn("cache hit for '%s' bypasses the requested "
                      "trace%s%s; rerun with the cache disabled to "
                      "re-trace cached cases",
                      key.c_str(),
                      prev.empty() ? "" : " (earlier trace: ",
                      prev.empty() ? "" : (prev + ")").c_str());
        }
    }

    CaseResult result;
    result.fromCache = from_cache;
    result.instrPerWatt = c.instrPerWatt;
    result.preemptions = c.preemptions;
    result.dramPerKcycle = c.dramPerKcycle;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        KernelResult kr;
        kr.name = kernels[i];
        kr.ipc = c.ipc[i];
        kr.goalFrac = goal_frac[i];
        kr.isQos = goal_frac[i] > 0.0;
        // Isolated baseline: identity for the isolated run itself.
        if (kernels.size() == 1 && policy == "even") {
            kr.ipcIsolated = kr.ipc;
        } else {
            Result<double> iso = isolatedIpc(kernels[i]);
            if (!iso.ok())
                return iso.error();
            kr.ipcIsolated = iso.value();
        }
        kr.goalIpc = kr.isQos ? goal_frac[i] * kr.ipcIsolated : 0.0;
        result.kernels.push_back(std::move(kr));
    }

    if (opts_.report && runDepth_ == 1) {
        ReportCase rc;
        rc.key = key;
        rc.freePreemption = opts_.freePreemption;
        rc.policy = policy;
        rc.config = opts_.configName;
        rc.engine = toString(opts_.engine);
        rc.simCyclesPerSec = sim.simCyclesPerSec;
        rc.wallSec = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        rc.cycleBreakdown = std::move(sim.breakdown);
        if (opts_.traceSink) {
            rc.tracePath = from_cache && cache_
                ? cache_->artifact(key)
                : opts_.tracePath;
        }
        rc.result = result;
        if (opts_.metrics) {
            opts_.metrics->observe("harness.case_wall_sec",
                                   rc.wallSec);
        }
        opts_.report->addCase(std::move(rc));
    }
    return result;
}

std::vector<double>
paperGoalSweep()
{
    std::vector<double> goals;
    for (int pct = 50; pct <= 95; pct += 5)
        goals.push_back(pct / 100.0);
    return goals;
}

std::vector<double>
paperDualGoalSweep()
{
    std::vector<double> goals;
    for (int pct = 25; pct <= 70; pct += 5)
        goals.push_back(pct / 100.0);
    return goals;
}

} // namespace gqos
