/**
 * @file
 * Epoch-by-epoch trace of a co-run under a chosen policy: per-kernel
 * epoch IPC, TB residency, quota state and preemption counts.
 * Intended for studying policy convergence behaviour.
 *
 * Usage: policy_trace [--kernels sgemm,lbm] [--goals 0.9,0]
 *                     [--policy rollover] [--cycles 200000]
 *                     [--trace epochs.jsonl] [--quiet|--verbose]
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "engine/simulation.hh"
#include "harness/runner.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    auto kernels = splitList(args.getString("kernels", "sgemm,lbm"));
    auto goal_strs = splitList(args.getString("goals", "0.9,0"));
    std::string policy = args.getString("policy", "rollover");
    Cycle cycles = args.getInt("cycles", 200000);
    if (kernels.size() != goal_strs.size())
        gqos_fatal("--kernels and --goals must have equal length");

    // Isolated baselines for the goal translation.
    Runner::Options ropts;
    ropts.cycles = cycles;
    ropts.warmupCycles = std::min<Cycle>(ropts.warmupCycles,
                                         cycles / 5);
    ropts.useCache = false;
    Runner runner = okOrDie(Runner::make(ropts));

    GpuConfig cfg = runner.config();
    std::vector<const KernelDesc *> descs;
    std::vector<QosSpec> specs;
    std::vector<double> iso;
    std::vector<double> goals;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        descs.push_back(&parboilKernel(kernels[i]));
        double frac = okOrDie(parseFinite(goal_strs[i], "--goals"));
        goals.push_back(frac);
        iso.push_back(okOrDie(runner.isolatedIpc(kernels[i])));
        specs.push_back(frac > 0.0
                            ? QosSpec::qos(frac * iso.back())
                            : QosSpec::nonQos());
        std::printf("# %s: isolated ipc %.1f, goal %s\n",
                    kernels[i].c_str(), iso.back(),
                    frac > 0 ? (std::to_string(frac).c_str())
                             : "none");
    }

    // The structured counterpart of the table below: stream every
    // epoch record to a trace file while the ASCII trace prints.
    std::unique_ptr<TraceSink> sink;
    std::string trace_spec = args.getString("trace", "");
    if (!trace_spec.empty())
        sink = okOrDie(openTraceSink(trace_spec));
    auto pol = okOrDie(makePolicy(policy, specs, cfg));
    std::printf("# policy: %s\n", pol->name().c_str());
    Simulation sim(cfg, descs, std::move(pol),
                   {.stallWindow = cfg.epochLength,
                    .label = caseKey(kernels, goals, policy),
                    .trace = sink.get()});
    const Gpu &gpu = sim.gpu();

    std::printf("%6s", "epoch");
    for (const auto &k : kernels)
        std::printf(" | %-8s ipcE  tbs  q/sm    iw", k.c_str());
    std::printf(" | preempt\n");

    std::vector<std::uint64_t> last_instr(kernels.size(), 0);
    const Cycle epoch = cfg.epochLength;
    int epoch_idx = 0;
    for (Cycle end = epoch; end <= cycles; end += epoch) {
        okOrDie(sim.runUntil(end));
        epoch_idx++;
        std::printf("%6d", epoch_idx);
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const auto k = static_cast<KernelId>(i);
            std::uint64_t instr = gpu.threadInstrs(k);
            double ipc_e =
                static_cast<double>(instr - last_instr[i]) / epoch;
            last_instr[i] = instr;
            double quota = 0.0, iw = 0.0;
            for (int s = 0; s < gpu.numSms(); ++s) {
                quota += gpu.sm(s).quota(k);
                iw += gpu.sm(s).iwAverage(k);
            }
            std::printf(" | %8.1f/%4.2f %4d %6.0f %5.1f", ipc_e,
                        iso[i] > 0 ? ipc_e / iso[i] : 0.0,
                        gpu.totalResidentTbs(k),
                        quota / gpu.numSms(), iw / gpu.numSms());
        }
        std::uint64_t pre = 0;
        for (int s = 0; s < gpu.numSms(); ++s)
            pre += gpu.sm(s).stats().preemptions;
        std::printf(" | %llu\n", static_cast<unsigned long long>(pre));
    }
    okOrDie(sim.runUntil(cycles));
    sim.finish();
    return 0;
}
