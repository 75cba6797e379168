/**
 * @file
 * Figure 8: throughput of non-QoS kernels normalized to isolated
 * execution, Spart vs Rollover, for (a) pairs, (b) 1-QoS trios and
 * (c) 2-QoS trios. Only cases that meet the QoS goals are included
 * (Section 4.1).
 */

#include "bench/bench_common.hh"

#include "common/stats.hh"

using namespace gqos;
using namespace gqos::bench;

namespace
{

void
pairsTable(Sweep &sw,
           const std::vector<std::pair<std::string, std::string>>
               &pairs)
{
    sw.header("Figure 8a: non-QoS throughput (pairs, "
              "goal-met cases only)");
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
                sp.add(rs.nonQosThroughput());
                avg_sp.add(rs.nonQosThroughput());
            }
            if (rr.allReached()) {
                ro.add(rr.nonQosThroughput());
                avg_ro.add(rr.nonQosThroughput());
            }
        }
        sw.printf("%4.0f%% %10.3f %10.3f\n", 100 * goal,
                  sp.mean(), ro.mean());
    }
    sw.printf("%-6s %10.3f %10.3f\n", "AVG", avg_sp.mean(),
              avg_ro.mean());
}

void
triosTable(Sweep &sw,
           const std::vector<std::array<std::string, 3>> &trios,
           int num_qos, const char *title,
           const std::vector<double> &goals, bool dual_label)
{
    sw.header(title);
    sw.printf("%-8s %10s %10s\n", "goal", "spart", "rollover");
    SampleStat avg_sp, avg_ro;
    for (double goal : goals) {
        SampleStat sp, ro;
        for (const auto &t : trios) {
            std::vector<double> gf = {goal, 0.0, 0.0};
            if (num_qos == 2)
                gf[1] = goal;
            CaseResult rs = sw.run({t[0], t[1], t[2]}, gf,
                                   "spart");
            CaseResult rr = sw.run({t[0], t[1], t[2]}, gf,
                                   "rollover");
            if (rs.allReached()) {
                sp.add(rs.nonQosThroughput());
                avg_sp.add(rs.nonQosThroughput());
            }
            if (rr.allReached()) {
                ro.add(rr.nonQosThroughput());
                avg_ro.add(rr.nonQosThroughput());
            }
        }
        sw.printf("%s%3.0f%% %10.3f %10.3f\n",
                  dual_label ? "2x" : "  ", 100 * goal,
                  sp.mean(), ro.mean());
    }
    sw.printf("%-8s %10.3f %10.3f\n", "AVG", avg_sp.mean(),
              avg_ro.mean());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = selectedPairs(args);
    auto trios = selectedTrios(args);

    Sweep sweep(runner, sweepOptions(args, "fig8"));
    sweep.execute([&](Sweep &sw) {
        pairsTable(sw, pairs);
        triosTable(sw, trios, 1,
                   "Figure 8b: non-QoS throughput (trios, 1 QoS)",
                   paperGoalSweep(), false);
        triosTable(sw, trios, 2,
                   "Figure 8c: non-QoS throughput (trios, 2 QoS)",
                   paperDualGoalSweep(), true);

        sw.printf("\n[paper] Rollover above Spart everywhere: "
                  "+15.9%% (pairs), +19.9%% (1-QoS trios), +20.5%% "
                  "(2-QoS trios); gap grows with the goal\n");
    });
    return 0;
}
