/**
 * @file
 * Figure 6: QoSreach vs. QoS goals.
 *
 *  (a) two-kernel pairs, Spart / Naive / Elastic / Rollover,
 *      goals 50%..95% step 5%;
 *  (b) trios with one QoS kernel, Spart / Rollover;
 *  (c) trios with two QoS kernels, goals (25%,25%)..(70%,70%).
 *
 * Prints one row per goal with the QoSreach of each scheme, plus
 * the AVG row, matching the paper's bar groups.
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

    Sweep sweep(runner, sweepOptions(args, "fig6"));
    sweep.execute([&](Sweep &sw) {
        goalTable(sw, {.title = "Figure 6a: QoSreach vs QoS goal (pairs)",
                       .goals = paperGoalSweep(),
                       .sets = pairs,
                       .policies = {"spart", "naive", "elastic",
                                    "rollover"}});
        goalTable(sw, {.title = "Figure 6b: QoSreach, trios with one "
                                "QoS kernel",
                       .goals = paperGoalSweep(),
                       .sets = trios,
                       .policies = {"spart", "rollover"}});
        goalTable(sw, {.title = "Figure 6c: QoSreach, trios with two "
                                "QoS kernels",
                       .goals = paperDualGoalSweep(),
                       .qosKernels = 2,
                       .labelWidth = 8,
                       .sets = trios,
                       .policies = {"spart", "rollover"}});

        sw.printf("\n[paper] 6a AVG: Spart 0.788, Naive 0.206, "
                  "Rollover 0.884 (Elastic between)\n"
                  "[paper] 6b: Rollover +18.8%% over Spart; "
                  "6c: Rollover +43.8%% over Spart\n");
    });
    return 0;
}
