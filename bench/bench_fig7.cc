/**
 * @file
 * Figure 7: QoSreach per QoS kernel in two-kernel sharing, plus the
 * C+C / C+M / M+M class summaries, Spart vs Rollover.
 */

#include <map>

#include "bench/bench_common.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = selectedPairs(args);

    Sweep sweep(runner, sweepOptions(args, "fig7"));
    sweep.execute([&](Sweep &sw) {
        // QoSreach: the mean of one 0/1 sample per case.
        std::map<std::string, SampleStat> per_kernel_sp,
            per_kernel_ro;
        std::map<std::string, SampleStat> per_class_sp, per_class_ro;

        for (double goal : paperGoalSweep()) {
            for (const auto &[qos, bg] : pairs) {
                CaseResult rs = sw.run({qos, bg}, {goal, 0.0},
                                       "spart");
                CaseResult rr = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                per_kernel_sp[qos].add(rs.allReached() ? 1.0 : 0.0);
                per_kernel_ro[qos].add(rr.allReached() ? 1.0 : 0.0);
                std::string cls =
                    std::string(
                        toString(parboilKernel(qos).wclass)) +
                    "+" + toString(parboilKernel(bg).wclass);
                if (cls == "M+C")
                    cls = "C+M"; // unordered class pair
                per_class_sp[cls].add(rs.allReached() ? 1.0 : 0.0);
                per_class_ro[cls].add(rr.allReached() ? 1.0 : 0.0);
            }
        }

        sw.header("Figure 7: QoSreach per QoS kernel (pairs)");
        sw.printf("%-14s %10s %10s\n", "QoS kernel", "spart",
                  "rollover");
        for (const auto &name : parboilNames()) {
            if (!per_kernel_sp.count(name))
                continue;
            sw.printf("%-14s %10.3f %10.3f\n", name.c_str(),
                      per_kernel_sp[name].mean(),
                      per_kernel_ro[name].mean());
        }
        for (const char *cls : {"C+C", "C+M", "M+M"}) {
            if (!per_class_sp.count(cls))
                continue;
            sw.printf("%-14s %10.3f %10.3f\n", cls,
                      per_class_sp[cls].mean(),
                      per_class_ro[cls].mean());
        }
        sw.printf("\n[paper] C+C: both reach all goals; M+M: Spart "
                  "clearly below Rollover (no bandwidth control); "
                  "histo worst (short kernels)\n");
    });
    return 0;
}
