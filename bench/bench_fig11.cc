/**
 * @file
 * Figure 11: non-QoS kernel throughput (normalized to isolated),
 * Rollover vs Rollover-Time. The paper reports 1.47x degradation
 * for the time-multiplexed variant: serializing loses the
 * complementary-resource overlap that fine-grained sharing exploits.
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

    Sweep sweep(runner, sweepOptions(args, "fig11"));
    sweep.execute([&](Sweep &sw) {
        std::vector<double> avg = goalTable(
            sw, {.title = "Figure 11: non-QoS throughput, Rollover vs "
                          "Rollover-Time (pairs, goal-met cases)",
                 .goals = paperGoalSweep(),
                 .sets = pairs,
                 .policies = {"rollover", "rollover-time"},
                 .widths = {12, 14},
                 .metrics = {GoalMetric::NonQosThroughput}});
        if (avg[1] > 0.0) {
            sw.printf("\nRollover-Time degradation: %.2fx\n",
                      avg[0] / avg[1]);
        }
        sw.printf("[paper] Rollover-Time degrades non-QoS "
                  "throughput by 1.47x\n");
    });
    return 0;
}
