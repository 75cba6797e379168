/**
 * @file
 * Figure 11: non-QoS kernel throughput (normalized to isolated),
 * Rollover vs Rollover-Time. The paper reports 1.47x degradation
 * for the time-multiplexed variant: serializing loses the
 * complementary-resource overlap that fine-grained sharing exploits.
 */

#include "bench/bench_common.hh"

#include "common/stats.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = selectedPairs(args);

    Sweep sweep(runner, sweepOptions(args, "fig11"));
    sweep.execute([&](Sweep &sw) {
        sw.header("Figure 11: non-QoS throughput, Rollover vs "
                  "Rollover-Time (pairs, goal-met cases)");
        sw.printf("%-6s %12s %14s\n", "goal", "rollover",
                  "rollover-time");
        SampleStat avg_ro, avg_rt;
        for (double goal : paperGoalSweep()) {
            SampleStat ro, rt;
            for (const auto &[qos, bg] : pairs) {
                CaseResult rr = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                CaseResult rm = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover-time");
                if (rr.allReached()) {
                    ro.add(rr.nonQosThroughput());
                    avg_ro.add(rr.nonQosThroughput());
                }
                if (rm.allReached()) {
                    rt.add(rm.nonQosThroughput());
                    avg_rt.add(rm.nonQosThroughput());
                }
            }
            sw.printf("%4.0f%% %12.3f %14.3f\n", 100 * goal,
                      ro.mean(), rt.mean());
        }
        sw.printf("%-6s %12.3f %14.3f\n", "AVG", avg_ro.mean(),
                  avg_rt.mean());
        if (avg_rt.mean() > 0.0) {
            sw.printf("\nRollover-Time degradation: %.2fx\n",
                      avg_ro.mean() / avg_rt.mean());
        }
        sw.printf("[paper] Rollover-Time degrades non-QoS "
                  "throughput by 1.47x\n");
    });
    return 0;
}
