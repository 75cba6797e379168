/**
 * @file
 * Section 4.8 ablations:
 *  - history-based quota adjustment on/off (paper: enabling covers
 *    86.4% more cases),
 *  - static TB adjustment on/off (paper: +13.3% M+M non-QoS
 *    throughput),
 *  - preemption-cost accounting (paper: 1.93% overhead on non-QoS
 *    throughput).
 * Plus the epoch-length sensitivity check DESIGN.md calls out.
 */

#include <map>

#include "bench/bench_common.hh"

#include "common/stats.hh"

using namespace gqos;
using namespace gqos::bench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    Runner runner = makeRunner(args);
    auto pairs = selectedPairs(args, 8);

    // Parts 1 and 2 share one sweep over the standard runner: each
    // (goal, pair) runs rollover and its two ablated variants once.
    // The preemption leg below reuses the paid rollover results.
    std::map<std::string, CaseResult> paid;
    Sweep sweep(runner, sweepOptions(args, "ablations"));
    sweep.execute([&](Sweep &sw) {
        // QoSreach: the mean of one 0/1 sample per case.
        SampleStat reach_on, reach_nohist, reach_nostatic;
        SampleStat mm_on, mm_off;
        for (double goal : paperGoalSweep()) {
            for (const auto &[qos, bg] : pairs) {
                CaseResult on = sw.run({qos, bg}, {goal, 0.0},
                                       "rollover");
                CaseResult nohist = sw.run({qos, bg}, {goal, 0.0},
                                           "rollover-nohist");
                CaseResult off = sw.run({qos, bg}, {goal, 0.0},
                                        "rollover-nostatic");
                paid[caseKey({qos, bg}, {goal, 0.0}, "rollover")] = on;
                reach_on.add(on.allReached() ? 1.0 : 0.0);
                reach_nohist.add(nohist.allReached() ? 1.0 : 0.0);
                reach_nostatic.add(off.allReached() ? 1.0 : 0.0);
                bool mm = parboilKernel(qos).wclass ==
                              WorkloadClass::Memory &&
                          parboilKernel(bg).wclass ==
                              WorkloadClass::Memory;
                if (mm && on.allReached())
                    mm_on.add(on.nonQosThroughput());
                if (mm && off.allReached())
                    mm_off.add(off.nonQosThroughput());
            }
        }

        // ---- history adjustment ----
        sw.header("Ablation: history-based quota adjustment "
                  "(Rollover)");
        sw.printf("QoSreach with history:    %.3f (%.0f/%llu)\n",
                  reach_on.mean(), reach_on.sum(),
                  static_cast<unsigned long long>(reach_on.count()));
        sw.printf("QoSreach without history: %.3f (%.0f/%llu)\n",
                  reach_nohist.mean(), reach_nohist.sum(),
                  static_cast<unsigned long long>(
                      reach_nohist.count()));
        sw.printf("[paper] enabling history covers 86.4%% more "
                  "cases\n");

        // ---- static TB adjustment (M+M pairs) ----
        sw.header("Ablation: static TB adjustment (Rollover, M+M "
                  "focus)");
        sw.printf("QoSreach with static adjust:    %.3f\n",
                  reach_on.mean());
        sw.printf("QoSreach without static adjust: %.3f\n",
                  reach_nostatic.mean());
        if (mm_off.mean() > 0.0) {
            sw.printf("M+M non-QoS throughput: %.3f vs %.3f "
                      "(%+.1f%%)\n", mm_on.mean(), mm_off.mean(),
                      100.0 * (mm_on.mean() / mm_off.mean() - 1.0));
        }
        sw.printf("[paper] static adjustment improves M+M non-QoS "
                  "throughput by 13.3%%\n");
    });

    // ---- preemption overhead ----
    // The free-preemption variant runs on its own runner (distinct
    // cache file), so it gets its own sweep; its paid counterparts
    // are rollover cases of the sweep above.
    printHeader("Ablation: preemption (partial context switch) "
                "cost");
    Runner::Options free_opts = runnerOptions(args);
    free_opts.freePreemption = true;
    Runner free_runner = okOrDie(Runner::make(free_opts));
    SampleStat thr_paid, thr_free;
    Sweep free_sweep(free_runner,
                     sweepOptions(args, "ablations-freepre"));
    free_sweep.execute([&](Sweep &sw) {
        for (double goal : {0.6, 0.8}) {
            for (const auto &[qos, bg] : subsample(pairs, 6)) {
                CaseResult free_r = sw.run({qos, bg}, {goal, 0.0},
                                           "rollover");
                if (sw.planning())
                    continue;
                const CaseResult &paid_r =
                    paid.at(caseKey({qos, bg}, {goal, 0.0},
                                    "rollover"));
                // Compare total throughput (QoS + non-QoS IPC share).
                double tp = paid_r.kernels[1].normalizedThroughput();
                double tf = free_r.kernels[1].normalizedThroughput();
                if (tf > 0.0) {
                    thr_paid.add(tp);
                    thr_free.add(tf);
                }
            }
        }
    });
    if (thr_free.mean() > 0.0) {
        std::printf("non-QoS throughput with preemption cost: "
                    "%.3f, free: %.3f -> overhead %.2f%%\n",
                    thr_paid.mean(), thr_free.mean(),
                    100.0 * (1.0 -
                             thr_paid.mean() / thr_free.mean()));
    }
    std::printf("[paper] preemption overhead is 1.93%% of non-QoS "
                "throughput\n");
    return 0;
}
