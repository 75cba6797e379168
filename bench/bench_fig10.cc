/**
 * @file
 * Figure 10: QoSreach of Rollover vs Rollover-Time (CPU-style
 * prioritization that blocks non-QoS kernels until QoS quotas
 * drain). The paper finds both reach goals similarly (within ~3%).
 */

#include "bench/bench_common.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = kernelSets(selectedPairs(args));

    Sweep sweep(runner, sweepOptions(args, "fig10"));
    sweep.execute([&](Sweep &sw) {
        goalTable(sw, {.title = "Figure 10: QoSreach, Rollover vs "
                                "Rollover-Time (pairs)",
                       .goals = paperGoalSweep(),
                       .sets = pairs,
                       .policies = {"rollover", "rollover-time"},
                       .widths = {12, 14}});
        sw.printf("\n[paper] similar QoSreach (difference ~3%%)\n");
    });
    return 0;
}
