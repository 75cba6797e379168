/**
 * @file
 * Workload characterization tool: runs every suite kernel in
 * isolation on the full GPU and reports IPC, cache behaviour and
 * DRAM utilization. Useful for validating that compute-bound and
 * memory-bound kernels behave as classified (paper Figure 7 relies
 * on this C/M split).
 *
 * Usage: characterize [--cycles N] [--config default|large]
 */

#include <chrono>
#include <cstdio>

#include "arch/gpu_config.hh"
#include "common/cli.hh"
#include "engine/simulation.hh"
#include "policy/even_share.hh"
#include "workloads/parboil.hh"

using namespace gqos;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    applyLogLevelFlags(args);
    Cycle cycles = args.getInt("cycles", 100000);
    GpuConfig cfg = args.getString("config", "default") == "large"
                        ? largeConfig()
                        : defaultConfig();

    std::printf("config: %s\n", cfg.summary().c_str());
    std::printf("%-14s %5s %8s %9s %8s %8s %8s %8s %8s %7s\n",
                "kernel", "cls", "tbs/sm", "ipc", "warpipc",
                "l1miss", "l2miss", "dram/kc", "rowmiss", "ms");

    for (const auto &desc : parboilSuite()) {
        auto t0 = std::chrono::steady_clock::now();

        // Alone, even share fills each SM with the kernel's max TBs.
        Simulation sim(cfg, {&desc}, std::make_unique<EvenSharePolicy>(),
                       {.stallWindow = cfg.epochLength,
                        .label = "even|" + desc.name});
        okOrDie(sim.runUntil(cycles));
        const Gpu &gpu = sim.gpu();
        int per_sm = desc.maxTbsPerSm(cfg);

        auto t1 = std::chrono::steady_clock::now();
        double ms = std::chrono::duration<double, std::milli>(
            t1 - t0).count();

        const auto &mem = gpu.mem();
        double l1_miss =
            static_cast<double>(mem.stats().l1Misses) /
            std::max<std::uint64_t>(1, mem.stats().l1Accesses);
        std::uint64_t l2_acc = 0, l2_miss = 0, dram = 0, rm = 0;
        for (int p = 0; p < mem.numPartitions(); ++p) {
            l2_acc += mem.partition(p).l2().stats().accesses;
            l2_miss += mem.partition(p).l2().stats().misses;
            dram += mem.partition(p).dram().stats().accesses;
            rm += mem.partition(p).dram().stats().rowMisses;
        }
        double ipc = gpu.ipc(0);
        double warp_ipc =
            static_cast<double>(gpu.warpInstrs(0)) / cycles;
        std::printf(
            "%-14s %5s %8d %9.1f %8.2f %7.1f%% %7.1f%% %8.3f "
            "%7.1f%% %7.0f\n",
            desc.name.c_str(), toString(desc.wclass), per_sm, ipc,
            warp_ipc, 100.0 * l1_miss,
            100.0 * l2_miss / std::max<std::uint64_t>(1, l2_acc),
            static_cast<double>(dram) / cycles,
            100.0 * rm / std::max<std::uint64_t>(1, dram), ms);
    }
    return 0;
}
