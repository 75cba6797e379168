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

#include "common/stats.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args, "large");
    // The 56-SM machine is ~3.5x more expensive to simulate; use a
    // smaller default pair subset.
    int n = args.getBool("full", false)
        ? 0 : static_cast<int>(args.getInt("pairs", 6));
    auto pairs = subsample(parboilPairs(), n);

    Sweep sweep(runner, sweepOptions(args, "fig12_13"));
    sweep.execute([&](Sweep &sw) {
        sw.header("Figures 12/13: 56 SMs, 2 schedulers/SM (pairs)");
        sw.printf("%-6s | %10s %10s | %10s %10s\n", "goal",
                  "sp.reach", "ro.reach", "sp.nonQoS", "ro.nonQoS");
        ReachStat avg_sp_r, avg_ro_r;
        SampleStat avg_sp_t, avg_ro_t;
        for (double goal : paperGoalSweep()) {
            ReachStat sp_r, ro_r;
            SampleStat sp_t, ro_t;
            for (const auto &[qos, bg] : pairs) {
                CaseResult rs = sw.run({qos, bg}, {goal, 0.0},
                                       "spart");
                CaseResult rr = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                sp_r.add(rs.allReached());
                ro_r.add(rr.allReached());
                avg_sp_r.add(rs.allReached());
                avg_ro_r.add(rr.allReached());
                if (rs.allReached()) {
                    sp_t.add(rs.nonQosThroughput());
                    avg_sp_t.add(rs.nonQosThroughput());
                }
                if (rr.allReached()) {
                    ro_t.add(rr.nonQosThroughput());
                    avg_ro_t.add(rr.nonQosThroughput());
                }
            }
            sw.printf("%4.0f%% | %10.3f %10.3f | %10.3f %10.3f\n",
                      100 * goal, sp_r.reach(), ro_r.reach(),
                      sp_t.mean(), ro_t.mean());
        }
        sw.printf("%-6s | %10.3f %10.3f | %10.3f %10.3f\n", "AVG",
                  avg_sp_r.reach(), avg_ro_r.reach(),
                  avg_sp_t.mean(), avg_ro_t.mean());
        sw.printf("\n[paper] more SMs narrow Spart's QoSreach gap "
                  "(still 4.76%% below Rollover); Rollover's "
                  "non-QoS throughput stays +30.65%% ahead\n");
    });
    return 0;
}
