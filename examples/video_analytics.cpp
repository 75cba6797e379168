/**
 * @file
 * Video-analytics scenario from the paper's motivation: a latency-
 * sensitive video kernel processes one frame per kernel launch and
 * must sustain a target frame rate, while a best-effort training
 * kernel soaks up the remaining GPU capacity.
 *
 * Demonstrates the Section 3.2 goal translation: frame rate ->
 * required kernel execution time -> IPC goal, via ipcGoalFromRate().
 *
 * Usage: video_analytics [--fps 90] [--video sad] [--train sgemm]
 *                        [--cycles 250000]
 */

#include <algorithm>
#include <cstdio>

#include "common/cli.hh"
#include "engine/simulation.hh"
#include "harness/runner.hh"
#include "policy/policy_factory.hh"
#include "qos/qos_spec.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    double fps = args.getDouble("fps", 90.0);
    std::string video = args.getString("video", "sad");
    std::string train = args.getString("train", "sgemm");
    Cycle cycles = args.getInt("cycles", 250000);

    Runner::Options ropts;
    ropts.cycles = cycles;
    ropts.warmupCycles = std::min<Cycle>(ropts.warmupCycles,
                                         cycles / 5);
    ropts.useCache = false;
    Runner runner = okOrDie(Runner::make(ropts));
    GpuConfig cfg = runner.config();

    // One kernel launch processes one frame. Work per frame in
    // thread instructions:
    const KernelDesc &vd = parboilKernel(video);
    double instr_per_frame = static_cast<double>(vd.gridTbs) *
        vd.warpsPerTb() * vd.warpInstrPerTb * 30.0; // ~avg lanes

    // Section 3.2: IPC = instructions / (freq x execution time).
    double ipc_goal = ipcGoalFromRate(instr_per_frame, 1.0 / fps,
                                      cfg.coreFreqGhz);
    double iso = okOrDie(runner.isolatedIpc(video));
    std::printf("video kernel '%s': %.3g instr/frame, %g fps "
                "=> IPC goal %.1f (isolated IPC %.1f, %.0f%%)\n",
                video.c_str(), instr_per_frame, fps, ipc_goal, iso,
                100.0 * ipc_goal / iso);
    if (ipc_goal > iso) {
        std::printf("requested frame rate exceeds isolated "
                    "capability; lower --fps\n");
        return 1;
    }

    std::vector<QosSpec> specs = {QosSpec::qos(ipc_goal),
                                  QosSpec::nonQos()};
    Simulation sim(cfg, {&vd, &parboilKernel(train)},
                   okOrDie(makePolicy("rollover", specs, cfg)),
                   {.engine = runner.options().engine,
                    .stallWindow = cfg.epochLength,
                    .label = caseKey({video, train},
                                     {ipc_goal / iso, 0.0},
                                     "rollover")});
    okOrDie(sim.runUntil(cycles));
    const Gpu &gpu = sim.gpu();

    double achieved_ipc = gpu.ipc(0);
    double achieved_fps = fps * achieved_ipc / ipc_goal;
    std::printf("\nachieved: video %.1f IPC -> %.1f fps (%s), "
                "frames completed: %llu launches\n", achieved_ipc,
                achieved_fps,
                achieved_ipc >= ipc_goal ? "target met"
                                         : "TARGET MISSED",
                static_cast<unsigned long long>(
                    gpu.dispatchState(0).launches));
    std::printf("training kernel '%s': %.1f IPC (%.0f%% of "
                "isolated %.1f)\n", train.c_str(), gpu.ipc(1),
                100.0 * gpu.ipc(1) / okOrDie(runner.isolatedIpc(train)),
                okOrDie(runner.isolatedIpc(train)));
    return 0;
}
