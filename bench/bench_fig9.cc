/**
 * @file
 * Figure 9: actual throughput of QoS kernels normalized to their
 * goals (overshoot), Spart vs Rollover, pairs. Spart wastes
 * whole-SM granularity (paper: +11.6%); Rollover allocates "just
 * enough" (paper: +2.8%).
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

    Sweep sweep(runner, sweepOptions(args, "fig9"));
    sweep.execute([&](Sweep &sw) {
        sw.header("Figure 9: QoS throughput normalized to goal "
                  "(pairs, goal-met cases)");
        sw.printf("%-6s %10s %10s\n", "goal", "spart", "rollover");
        SampleStat avg_sp, avg_ro;
        for (double goal : paperGoalSweep()) {
            SampleStat sp, ro;
            for (const auto &[qos, bg] : pairs) {
                CaseResult rs = sw.run({qos, bg}, {goal, 0.0},
                                       "spart");
                CaseResult rr = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                if (rs.allReached()) {
                    sp.add(rs.qosOvershoot());
                    avg_sp.add(rs.qosOvershoot());
                }
                if (rr.allReached()) {
                    ro.add(rr.qosOvershoot());
                    avg_ro.add(rr.qosOvershoot());
                }
            }
            sw.printf("%4.0f%% %10.3f %10.3f\n", 100 * goal,
                      sp.mean(), ro.mean());
        }
        sw.printf("%-6s %10.3f %10.3f\n", "AVG", avg_sp.mean(),
                  avg_ro.mean());
        sw.printf("\n[paper] Spart exceeds goals by 11.6%% on "
                  "average; Rollover by only 2.8%%\n");
    });
    return 0;
}
