/**
 * @file
 * Table 1: the simulated machine configuration, printed from the
 * live GpuConfig defaults so the table can never drift from the
 * code.
 */

#include <cstdio>

#include "arch/gpu_config.hh"

using namespace gqos;

int
main()
{
    GpuConfig cfg = defaultConfig();
    std::printf("Table 1: simulation parameters\n");
    std::printf("  %-22s %g MHz\n", "Core Freq.",
                cfg.coreFreqGhz * 1000);
    std::printf("  %-22s %g GHz\n", "Mem. Freq.", cfg.memFreqGhz);
    std::printf("  %-22s %d\n", "# of SMs", cfg.numSms);
    std::printf("  %-22s %d\n", "# of MC", cfg.numMemPartitions);
    std::printf("  %-22s %s\n", "Sched. Policy", "GTO");
    std::printf("  %-22s %d KB\n", "Registers",
                cfg.regFileBytes / 1024);
    std::printf("  %-22s %d KB\n", "Shared Memory",
                cfg.sharedMemBytes / 1024);
    std::printf("  %-22s %d\n", "Threads", cfg.maxThreadsPerSm);
    std::printf("  %-22s %d\n", "TB Limit", cfg.maxTbsPerSm);
    std::printf("  %-22s %d\n", "Warp Scheduler",
                cfg.warpSchedulersPerSm);
    std::printf("  %-22s %llu cycles\n", "QoS epoch",
                static_cast<unsigned long long>(cfg.epochLength));
    std::printf("  %-22s %d / epoch\n", "IW samples",
                cfg.iwSamplesPerEpoch);
    std::printf("\nScalability config (Section 4.6): %s\n",
                largeConfig().summary().c_str());
    return 0;
}
