/**
 * @file
 * Figure 9: actual throughput of QoS kernels normalized to their
 * goals (overshoot), Spart vs Rollover, pairs. Spart wastes
 * whole-SM granularity (paper: +11.6%); Rollover allocates "just
 * enough" (paper: +2.8%).
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

    Sweep sweep(runner, sweepOptions(args, "fig9"));
    sweep.execute([&](Sweep &sw) {
        goalTable(sw, {.title = "Figure 9: QoS throughput normalized "
                                "to goal (pairs, goal-met cases)",
                       .goals = paperGoalSweep(),
                       .sets = pairs,
                       .policies = {"spart", "rollover"},
                       .metrics = {GoalMetric::QosOvershoot}});
        sw.printf("\n[paper] Spart exceeds goals by 11.6%% on "
                  "average; Rollover by only 2.8%%\n");
    });
    return 0;
}
