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

#include "common/logging.hh"
#include "engine/simulation.hh"
#include "harness/run_report.hh"
#include "policy/policy_factory.hh"
#include "power/power_model.hh"
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
    return Runner(std::move(opts), std::move(cfg).value());
}

Runner::Runner(Options opts, GpuConfig cfg)
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
        cache_ = ResultCache::open(cachePath_);
    }
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
            Result<double> iso = baseline(kernels[i], false);
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

    Result<std::unique_ptr<SharingPolicy>> pol =
        makePolicy(policy, specs, cfg_);
    if (!pol.ok())
        return pol.error();
    const std::string key = caseKey(kernels, goal_frac, policy);
    // Cycle attribution rides along whenever the run report
    // (--stats-json) can show it. The watchdog aborts a case that
    // retires nothing for an epoch with live warps. A free-
    // preemption run is labelled apart from the paid run of its key
    // in a shared trace; cache and report keep the plain key.
    Simulation sim(cfg_, descs, std::move(pol).value(),
                   {.engine = opts_.engine,
                    .stallWindow = cfg_.epochLength,
                    .label = opts_.freePreemption
                                 ? key + "|free-preemption"
                                 : key,
                    .trace = opts_.traceSink,
                    .metrics = opts_.metrics,
                    .accounting = opts_.report != nullptr});
    const Gpu &gpu = sim.gpu();

    std::vector<std::uint64_t> instr_at_warmup(kernels.size(), 0);
    auto sim_t0 = std::chrono::steady_clock::now();
    Result<void> ran = sim.runUntil(warmup);
    if (ran.ok()) {
        for (std::size_t i = 0; i < kernels.size(); ++i)
            instr_at_warmup[i] =
                gpu.threadInstrs(static_cast<KernelId>(i));
        ran = sim.runUntil(opts_.cycles);
    }
    double sim_wall = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - sim_t0).count();
    if (!ran.ok())
        return ran.error();

    Simulated out;
    out.simCyclesPerSec = sim_wall > 0.0
        ? static_cast<double>(gpu.now()) / sim_wall
        : 0.0;
    out.breakdown = sim.finish();

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
    const int done = [&] {
        std::lock_guard<std::mutex> guard(shared_->mutex);
        return ++shared_->simulated;
    }();
    gqos_debug("simulated %s [%d done]", key.c_str(), done);
    return out;
}

std::map<std::string, double>
Runner::isolatedBaselines() const
{
    std::lock_guard<std::mutex> guard(shared_->mutex);
    return shared_->baselines;
}

int
Runner::simulatedCases() const
{
    std::lock_guard<std::mutex> guard(shared_->mutex);
    return shared_->simulated;
}

Result<double>
Runner::isolatedIpc(const std::string &kernel)
{
    return baseline(kernel, true);
}

Result<double>
Runner::baseline(const std::string &kernel, bool report)
{
    {
        std::lock_guard<std::mutex> guard(shared_->mutex);
        auto it = shared_->baselines.find(kernel);
        if (it != shared_->baselines.end())
            return it->second;
    }
    Result<CaseResult> r = execute({kernel}, {0.0}, "even", report);
    if (!r.ok())
        return r.error();
    const double ipc = r.value().kernels[0].ipc;
    std::lock_guard<std::mutex> guard(shared_->mutex);
    shared_->baselines.emplace(kernel, ipc);
    return ipc;
}

Result<CaseResult>
Runner::run(const std::vector<std::string> &kernels,
            const std::vector<double> &goal_frac,
            const std::string &policy)
{
    return execute(kernels, goal_frac, policy, true);
}

Result<CaseResult>
Runner::execute(const std::vector<std::string> &kernels,
                const std::vector<double> &goal_frac,
                const std::string &policy, bool report)
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
        if (cache_)
            cache_->insert(key, c);
    } else if (opts_.traceSink &&
               cache_->claimTraceBypassWarning(key)) {
        // A hit skips the simulation, so nothing lands in the
        // requested trace.
        gqos_warn("cache hit for '%s' bypasses the requested "
                  "trace; rerun with the cache disabled to "
                  "re-trace cached cases", key.c_str());
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
            Result<double> iso = baseline(kernels[i], false);
            if (!iso.ok())
                return iso.error();
            kr.ipcIsolated = iso.value();
        }
        kr.goalIpc = kr.isQos ? goal_frac[i] * kr.ipcIsolated : 0.0;
        result.kernels.push_back(std::move(kr));
    }

    if (opts_.report && report) {
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
        // A cached case's records are not in this run's trace.
        if (opts_.traceSink && !from_cache)
            rc.tracePath = opts_.tracePath;
        rc.result = result;
        opts_.report->addCase(std::move(rc));
    }
    return result;
}

std::string
caseKey(const std::vector<std::string> &kernels,
        const std::vector<double> &goals, const std::string &policy)
{
    std::string key = policy;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        char goal[32] = "?";
        if (i < goals.size())
            std::snprintf(goal, sizeof(goal), "%.4f", goals[i]);
        key += "|" + kernels[i] + ":" + goal;
    }
    return key;
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
