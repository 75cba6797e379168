/**
 * @file
 * Figure 14: energy-efficiency (instructions per Watt) improvement
 * of Rollover over Spart, two-kernel sharing, GPUWattch-style power
 * model. The paper reports +9.3% on average from better resource
 * utilization.
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

    Sweep sweep(runner, sweepOptions(args, "fig14"));
    sweep.execute([&](Sweep &sw) {
        sw.header("Figure 14: instr/Watt improvement of Rollover "
                  "over Spart (pairs)");
        sw.printf("%-6s %12s\n", "goal", "improvement");
        SampleStat avg;
        for (double goal : paperGoalSweep()) {
            SampleStat impr;
            for (const auto &[qos, bg] : pairs) {
                CaseResult rs = sw.run({qos, bg}, {goal, 0.0},
                                       "spart");
                CaseResult rr = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                if (rs.instrPerWatt > 0.0) {
                    double d =
                        rr.instrPerWatt / rs.instrPerWatt - 1.0;
                    impr.add(d);
                    avg.add(d);
                }
            }
            sw.printf("%4.0f%% %11.1f%%\n", 100 * goal,
                      100.0 * impr.mean());
        }
        sw.printf("%-6s %11.1f%%\n", "AVG", 100.0 * avg.mean());
        sw.printf("\n[paper] +9.3%% on average\n");
    });
    return 0;
}
