/**
 * @file
 * GPU configuration validation and presets.
 */

#include "arch/gpu_config.hh"

#include <sstream>

#include "common/fault_injection.hh"
#include "common/logging.hh"

namespace gqos
{

Result<void>
GpuConfig::check() const
{
    auto fail = [](auto... args) -> Result<void> {
        return Error::format(ErrorCode::InvalidArgument, args...);
    };
    if (numSms < 1 || numSms > 64)
        return fail("numSms=%d out of range [1,64] (the Gpu keeps "
                    "one bit per SM in 64-bit masks)", numSms);
    if (numMemPartitions < 1)
        return fail("numMemPartitions must be >= 1");
    if (maxThreadsPerSm % warpSize != 0)
        return fail("maxThreadsPerSm must be a multiple of %d",
                    warpSize);
    if (warpSchedulersPerSm < 1)
        return fail("warpSchedulersPerSm must be >= 1");
    if (maxWarpsPerSm() % warpSchedulersPerSm != 0)
        return fail("warps per SM (%d) must divide evenly among %d "
                    "schedulers", maxWarpsPerSm(),
                    warpSchedulersPerSm);
    if (maxWarpsPerSm() > 64)
        return fail("maxWarpsPerSm=%d exceeds 64 (an SM keeps one bit "
                    "per warp slot in 64-bit masks)", maxWarpsPerSm());
    if (l1Bytes % (l1Assoc * lineSizeBytes) != 0)
        return fail("L1 size must divide into %d-way %dB sets",
                    l1Assoc, lineSizeBytes);
    if (l2BytesPerPartition % (l2Assoc * lineSizeBytes) != 0)
        return fail("L2 size must divide into %d-way %dB sets",
                    l2Assoc, lineSizeBytes);
    if (epochLength < 100)
        return fail("epochLength=%llu too small",
                    static_cast<unsigned long long>(epochLength));
    if (iwSamplesPerEpoch < 1 ||
        static_cast<Cycle>(iwSamplesPerEpoch) > epochLength)
        return fail("iwSamplesPerEpoch out of range");
    if (dramSlotsPerCycle <= 0.0)
        return fail("dramSlotsPerCycle must be positive");
    return {};
}

void
GpuConfig::validate() const
{
    Result<void> r = check();
    if (!r.ok())
        gqos_fatal("%s", r.error().message().c_str());
}

std::string
GpuConfig::summary() const
{
    std::ostringstream os;
    os << numSms << " SMs @" << coreFreqGhz << "GHz, "
       << warpSchedulersPerSm << " sched/SM (GTO), "
       << maxThreadsPerSm << " thr/SM, " << maxTbsPerSm << " TB/SM, "
       << regFileBytes / 1024 << "KB regs, "
       << sharedMemBytes / 1024 << "KB smem, "
       << numMemPartitions << " MCs";
    return os.str();
}

GpuConfig
defaultConfig()
{
    GpuConfig cfg;
    cfg.validate();
    return cfg;
}

GpuConfig
largeConfig()
{
    GpuConfig cfg;
    cfg.numSms = 56;
    cfg.warpSchedulersPerSm = 2;
    cfg.numMemPartitions = 8;
    // Scale GPU-wide interconnect/DRAM capability with the part.
    cfg.icntFlitsPerCycle = 24;
    cfg.validate();
    return cfg;
}

Result<GpuConfig>
configByName(const std::string &name)
{
    if (faultAt("config_parse")) {
        return Error::format(ErrorCode::FaultInjected,
                             "injected config-parse failure for '%s'",
                             name.c_str());
    }
    if (name == "default")
        return defaultConfig();
    if (name == "large")
        return largeConfig();
    return Error::format(ErrorCode::NotFound,
                         "unknown config '%s' (known: default, "
                         "large)", name.c_str());
}

std::vector<std::string>
knownConfigs()
{
    return {"default", "large"};
}

} // namespace gqos
