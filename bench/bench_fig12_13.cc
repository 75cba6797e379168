/**
 * @file
 * Figures 12 & 13: scalability with the number of SMs. The GPU is
 * reconfigured to 56 SMs with two warp schedulers each (Section
 * 4.6); isolated baselines and goals are recomputed for the new
 * machine, so the numbers are not comparable with Figures 6-11.
 *
 * Figure 12: QoSreach vs goals (pairs), Spart vs Rollover.
 * Figure 13: non-QoS throughput (pairs), Spart vs Rollover.
 */

#include "bench/bench_common.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args, "large");
    // The 56-SM machine is ~3.5x more expensive to simulate; use a
    // smaller default pair subset.
    auto pairs = kernelSets(selectedPairs(args, 6));

    Sweep sweep(runner, sweepOptions(args, "fig12_13"));
    sweep.execute([&](Sweep &sw) {
        goalTable(sw, {.title = "Figures 12/13: 56 SMs, 2 "
                                "schedulers/SM (pairs)",
                       .goals = paperGoalSweep(),
                       .sets = pairs,
                       .policies = {"spart", "rollover"},
                       .metrics = {GoalMetric::Reach,
                                   GoalMetric::NonQosThroughput},
                       .headings = {"sp.reach", "ro.reach",
                                    "sp.nonQoS", "ro.nonQoS"}});
        sw.printf("\n[paper] more SMs narrow Spart's QoSreach gap "
                  "(still 4.76%% below Rollover); Rollover's "
                  "non-QoS throughput stays +30.65%% ahead\n");
    });
    return 0;
}
