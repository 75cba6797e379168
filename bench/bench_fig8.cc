/**
 * @file
 * Figure 8: throughput of non-QoS kernels normalized to isolated
 * execution, Spart vs Rollover, for (a) pairs, (b) 1-QoS trios and
 * (c) 2-QoS trios. Only cases that meet the QoS goals are included
 * (Section 4.1).
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
    auto trios = kernelSets(selectedTrios(args));
    const std::vector<GoalMetric> nonQos = {
        GoalMetric::NonQosThroughput};

    Sweep sweep(runner, sweepOptions(args, "fig8"));
    sweep.execute([&](Sweep &sw) {
        goalTable(sw, {.title = "Figure 8a: non-QoS throughput "
                                "(pairs, goal-met cases only)",
                       .goals = paperGoalSweep(),
                       .sets = pairs,
                       .policies = {"spart", "rollover"},
                       .metrics = nonQos});
        goalTable(sw, {.title = "Figure 8b: non-QoS throughput "
                                "(trios, 1 QoS)",
                       .goals = paperGoalSweep(),
                       .labelWidth = 8,
                       .sets = trios,
                       .policies = {"spart", "rollover"},
                       .metrics = nonQos});
        goalTable(sw, {.title = "Figure 8c: non-QoS throughput "
                                "(trios, 2 QoS)",
                       .goals = paperDualGoalSweep(),
                       .qosKernels = 2,
                       .labelWidth = 8,
                       .sets = trios,
                       .policies = {"spart", "rollover"},
                       .metrics = nonQos});

        sw.printf("\n[paper] Rollover above Spart everywhere: "
                  "+15.9%% (pairs), +19.9%% (1-QoS trios), +20.5%% "
                  "(2-QoS trios); gap grows with the goal\n");
    });
    return 0;
}
