/**
 * @file
 * Datacenter consolidation scenario: three services share one GPU.
 * Two carry SLA-backed progress-rate requirements (QoS kernels);
 * the third is a best-effort batch job. Compares the paper's
 * fine-grained Rollover scheme against spatial partitioning and
 * shows the per-epoch convergence of both QoS kernels.
 *
 * Usage: datacenter_trio [--kernels mri-q,lbm,stencil]
 *                        [--goals 0.5,0.4] [--cycles 300000]
 */

#include <algorithm>
#include <cstdio>

#include "common/cli.hh"
#include "common/logging.hh"
#include "harness/runner.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    auto kernels = splitList(
        args.getString("kernels", "mri-q,lbm,stencil"));
    auto goal_strs = splitList(args.getString("goals", "0.5,0.4"));
    Cycle cycles = args.getInt("cycles", 300000);
    if (kernels.size() != 3 || goal_strs.size() != 2)
        gqos_fatal("need exactly 3 kernels and 2 goals");

    Runner::Options ropts;
    ropts.cycles = cycles;
    ropts.warmupCycles = std::min<Cycle>(ropts.warmupCycles,
                                         cycles / 5);
    ropts.useCache = false;
    Runner runner = okOrDie(Runner::make(ropts));

    double g0 = okOrDie(parseFinite(goal_strs[0], "--goals"));
    double g1 = okOrDie(parseFinite(goal_strs[1], "--goals"));

    std::printf("services: %s (SLA %.0f%%), %s (SLA %.0f%%), %s "
                "(best effort)\n\n", kernels[0].c_str(), 100 * g0,
                kernels[1].c_str(), 100 * g1, kernels[2].c_str());

    for (const char *policy : {"rollover", "spart"}) {
        CaseResult r = okOrDie(
            runner.run(kernels, {g0, g1, 0.0}, policy));
        std::printf("[%s]\n", policy);
        for (const auto &k : r.kernels) {
            if (k.isQos) {
                std::printf("  %-12s %8.1f IPC vs goal %8.1f  %s "
                            "(%.0f%% of goal)\n", k.name.c_str(),
                            k.ipc, k.goalIpc,
                            k.reached() ? "SLA met   "
                                        : "SLA MISSED",
                            100.0 * k.normalizedToGoal());
            } else {
                std::printf("  %-12s %8.1f IPC best-effort "
                            "(%.0f%% of isolated)\n",
                            k.name.c_str(), k.ipc,
                            100.0 * k.normalizedThroughput());
            }
        }
        std::printf("  energy efficiency: %.3g instr/s/W, "
                    "preemptions: %llu\n\n", r.instrPerWatt,
                    static_cast<unsigned long long>(r.preemptions));
    }
    return 0;
}
