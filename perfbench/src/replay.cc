/**
 * @file
 * Benchmark-driven replays of sweep cases and serving streams.
 */

#include "replay.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "gpu/gpu.hh"
#include "measure.hh"
#include "policy/policy_factory.hh"
#include "power/power_model.hh"
#include "workloads/parboil.hh"

namespace perfbench
{

namespace
{

using gqos::Cycle;
using gqos::Gpu;
using gqos::SharingPolicy;

/** Engine watchdog window of serving replays (ServingDriver default). */
constexpr Cycle servingStallWindow = 500000;

/** Advances a machine in the replay's mode and accounts the cost. */
class Stepper
{
  public:
    Stepper(const ReplayOptions &opts, Cycle stall_window)
        : opts_(opts), engine_(gqos::EngineKind::Event, stall_window)
    {}

    /** Run to @p until; true if the engine watchdog fired. */
    bool
    advance(Gpu &gpu, SharingPolicy &policy, Cycle until,
            ReplayStats &st)
    {
        const Clock::time_point t0 = Clock::now();
        bool stalled = false;
        if (opts_.mode == ReplayMode::Engine) {
            stalled = engine_.runUntil(gpu, policy, until);
        } else {
            Clock::time_point a = t0;
            while (gpu.now() < until) {
                policy.onCycle(gpu);
                const Clock::time_point b = Clock::now();
                gpu.step(false);
                const Clock::time_point c = Clock::now();
                st.onCycleSec += std::chrono::duration<double>(b - a)
                                     .count();
                st.stepSec += std::chrono::duration<double>(c - b)
                                  .count();
                a = c;
            }
        }
        st.advanceSec += secondsSince(t0);
        return stalled;
    }

    const gqos::EngineStats &engineStats() const
    {
        return engine_.stats();
    }

  private:
    ReplayOptions opts_;
    gqos::SimEngine engine_;
};

/** Machine-level counters every replay reports. */
void
collectMachineStats(const Gpu &gpu, ReplayStats &st)
{
    st.cycles = gpu.now();
    st.numSms = gpu.numSms();
    st.smSkipped = gpu.smSkippedCycles();
    for (int s = 0; s < gpu.numSms(); ++s) {
        const gqos::SmStats &x = gpu.sm(s).stats();
        st.sm.cycles += x.cycles;
        st.sm.activeCycles += x.activeCycles;
        st.sm.issuedAlu += x.issuedAlu;
        st.sm.issuedSfu += x.issuedSfu;
        st.sm.issuedSmem += x.issuedSmem;
        st.sm.issuedLoads += x.issuedLoads;
        st.sm.issuedStores += x.issuedStores;
        st.sm.preemptions += x.preemptions;
    }
    st.mem = gpu.mem().stats();
    st.l2Accesses = gpu.mem().totalL2Accesses();
    st.l2Misses = gpu.mem().totalL2Misses();
    st.dramAccesses = gpu.mem().totalDramAccesses();
    double gated = 0.0;
    for (int k = 0; k < gpu.numKernels(); ++k)
        gated += gpu.gatedFraction(static_cast<gqos::KernelId>(k));
    st.gatedFraction =
        gpu.numKernels() ? gated / gpu.numKernels() : 0.0;
}

} // anonymous namespace

gqos::Result<ReplayStats>
replayCase(const gqos::GpuConfig &cfg, Cycle cycles,
           Cycle warmup_cycles, const gqos::SweepCase &c,
           const std::vector<double> &isolated_ipc,
           const ReplayOptions &opts)
{
    // Mirrors the harness's simulate(): same launch order, goals,
    // warm-up rule and measurement window.
    std::vector<const gqos::KernelDesc *> descs;
    std::vector<gqos::QosSpec> specs;
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
        auto desc = gqos::findParboilKernel(c.kernels[i]);
        if (!desc.ok())
            return desc.error();
        descs.push_back(desc.value());
        specs.push_back(c.goals[i] > 0.0
                            ? gqos::QosSpec::qos(c.goals[i] *
                                                 isolated_ipc[i])
                            : gqos::QosSpec::nonQos());
    }
    Gpu gpu(cfg);
    gpu.launch(descs);
    if (opts.accounting)
        gpu.setCycleAccounting(true);
    auto pol = gqos::makePolicy(c.policy, specs, cfg);
    if (!pol.ok())
        return pol.error();
    if (opts.metrics)
        pol.value()->attachTelemetry(nullptr, opts.metrics);
    pol.value()->onLaunch(gpu);

    ReplayStats st;
    Stepper stepper(opts, cfg.epochLength);
    const Cycle warmup = std::min(warmup_cycles, cycles / 2);
    std::vector<std::uint64_t> atWarmup(c.kernels.size(), 0);
    st.stalled = stepper.advance(gpu, *pol.value(), warmup, st);
    if (!st.stalled) {
        for (std::size_t i = 0; i < c.kernels.size(); ++i)
            atWarmup[i] =
                gpu.threadInstrs(static_cast<gqos::KernelId>(i));
        st.stalled = stepper.advance(gpu, *pol.value(), cycles, st);
    }
    if (st.stalled) {
        return gqos::Error::format(gqos::ErrorCode::Stalled,
                                   "replay of '%s' stalled at cycle %llu",
                                   c.describe().c_str(),
                                   static_cast<unsigned long long>(
                                       gpu.now()));
    }
    pol.value()->onFinish(gpu);

    const Cycle window = cycles - warmup;
    for (std::size_t i = 0; i < c.kernels.size(); ++i) {
        const std::uint64_t instr =
            gpu.threadInstrs(static_cast<gqos::KernelId>(i)) -
            atWarmup[i];
        st.result.ipc.push_back(static_cast<double>(instr) / window);
    }
    st.result.instrPerWatt = gqos::instrPerWatt(gpu);
    collectMachineStats(gpu, st);
    st.result.preemptions = st.sm.preemptions;
    st.result.dramPerKcycle = 1000.0 * st.dramAccesses /
                              std::max<Cycle>(1, gpu.now());
    st.engine = stepper.engineStats();
    return st;
}

gqos::Result<ReplayStats>
replayServing(const std::vector<gqos::TenantSpec> &tenants,
              const std::vector<double> &isolated_ipc,
              const std::vector<gqos::Arrival> &arrivals,
              const gqos::ServingOptions &serving,
              const ReplayOptions &opts)
{
    auto cfg = gqos::configByName(serving.configName);
    if (!cfg.ok())
        return cfg.error();
    const int n = static_cast<int>(tenants.size());
    std::vector<gqos::KernelDesc> descs;
    std::vector<gqos::QosSpec> specs;
    for (int t = 0; t < n; ++t) {
        auto desc = gqos::servingKernelDesc(tenants[t]);
        if (!desc.ok())
            return desc.error();
        descs.push_back(std::move(desc).value());
        // Same goal rule as the serving driver.
        const bool qos = tenants[t].goalFrac > 0.0 &&
                         tenants[t].qosClass !=
                             gqos::QosClass::BestEffort;
        specs.push_back(qos ? gqos::QosSpec::qos(tenants[t].goalFrac *
                                                 isolated_ipc[t])
                            : gqos::QosSpec::nonQos());
    }
    std::vector<const gqos::KernelDesc *> ptrs;
    for (const gqos::KernelDesc &d : descs)
        ptrs.push_back(&d);

    Gpu gpu(cfg.value());
    gpu.launch(ptrs);
    for (int t = 0; t < n; ++t)
        gpu.setManualLaunch(t);
    if (opts.accounting)
        gpu.setCycleAccounting(true);
    auto pol = gqos::makePolicy(serving.policy, specs, cfg.value());
    if (!pol.ok())
        return pol.error();
    if (opts.metrics)
        pol.value()->attachTelemetry(nullptr, opts.metrics);
    pol.value()->onLaunch(gpu);

    ReplayStats st;
    Stepper stepper(opts, servingStallWindow);
    const Cycle hardEnd =
        (arrivals.empty() ? 0 : arrivals.back().cycle) +
        serving.drainGrace;
    std::vector<std::uint64_t> backlog(n, 0);
    std::size_t ai = 0;
    for (;;) {
        const Cycle now = gpu.now();
        while (ai < arrivals.size() && arrivals[ai].cycle <= now)
            backlog[arrivals[ai++].tenant]++;
        bool busy = false;
        for (int t = 0; t < n; ++t) {
            if (!gpu.gridActive(t) && backlog[t] > 0) {
                backlog[t]--;
                gpu.startGrid(t);
            }
            busy = busy || backlog[t] > 0 || gpu.gridActive(t);
        }
        if ((ai == arrivals.size() && !busy) || now >= hardEnd)
            break;
        Cycle target = now + serving.tick;
        if (ai < arrivals.size())
            target = std::min(target, arrivals[ai].cycle);
        target = std::max(std::min(target, hardEnd), now + 1);
        if (stepper.advance(gpu, *pol.value(), target, st)) {
            st.stalled = true;
            break;
        }
    }
    pol.value()->onFinish(gpu);
    collectMachineStats(gpu, st);
    st.engine = stepper.engineStats();
    return st;
}

bool
sameBits(const gqos::CachedCase &a, const gqos::CachedCase &b)
{
    auto eq = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    if (a.ipc.size() != b.ipc.size())
        return false;
    for (std::size_t i = 0; i < a.ipc.size(); ++i) {
        if (!eq(a.ipc[i], b.ipc[i]))
            return false;
    }
    return eq(a.instrPerWatt, b.instrPerWatt) &&
           a.preemptions == b.preemptions &&
           eq(a.dramPerKcycle, b.dramPerKcycle);
}

} // namespace perfbench
