/**
 * @file
 * Machine configuration: the paper's Table 1 plus the memory-system
 * and preemption parameters GPGPU-Sim supplies implicitly.
 */

#ifndef GQOS_ARCH_GPU_CONFIG_HH
#define GQOS_ARCH_GPU_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

/**
 * Full machine configuration.
 *
 * Default values reproduce the paper's Table 1 (a GTX-1080-class
 * part: 16 SMs, 4 memory controllers, 4 warp schedulers per SM,
 * 256KB registers / 96KB shared memory / 2048 threads / 32 TBs per
 * SM, GTO scheduling). Memory-hierarchy details follow GPGPU-Sim's
 * comparable configuration.
 */
struct GpuConfig
{
    // ---- Table 1 ----
    double coreFreqGhz = 1.216;     //!< core clock, GHz
    double memFreqGhz = 7.0;        //!< memory data clock, GHz
    int numSms = 16;                //!< streaming multiprocessors (<= 64)
    int numMemPartitions = 4;       //!< memory controllers (w/ L2)
    int regFileBytes = 256 * 1024;  //!< register file per SM
    int sharedMemBytes = 96 * 1024; //!< scratchpad per SM
    int maxThreadsPerSm = 2048;     //!< thread slots per SM
    int maxTbsPerSm = 32;           //!< TB slots per SM
    int warpSchedulersPerSm = 4;    //!< schedulers (issue ports)

    // ---- L1 / LSU ----
    int l1Bytes = 24 * 1024;        //!< L1 data cache per SM
    int l1Assoc = 6;                //!< L1 associativity
    int l1Mshrs = 32;               //!< outstanding L1 misses
    int l1HitLatency = 28;          //!< core cycles, load-to-use
    int lsuPortsPerSm = 1;          //!< mem instructions issued/cycle

    // ---- Interconnect ----
    int icntLatency = 32;           //!< one-way latency, core cycles
    int icntFlitsPerCycle = 8;      //!< GPU-wide request slots/cycle

    // ---- L2 / DRAM (per memory partition) ----
    int l2BytesPerPartition = 512 * 1024;
    int l2Assoc = 16;
    int l2HitLatency = 96;          //!< core cycles beyond icnt
    int l2MshrsPerPartition = 64;
    int dramLatency = 220;          //!< row-hit service latency
    int dramRowMissExtra = 90;      //!< extra cycles on row miss
    /**
     * DRAM service slots per partition per core cycle. With 4
     * partitions and 128B lines this caps useful bandwidth; 0.35
     * slots/cycle/partition ~= 218 GB/s at 1.216 GHz, close to a
     * GTX-1080-class part once overheads are counted.
     */
    double dramSlotsPerCycle = 0.35;

    // ---- Instruction timing ----
    int sfuLatency = 20;            //!< special-function op latency
    int smemLatency = 24;           //!< shared-memory base latency

    // ---- QoS / sharing machinery ----
    Cycle epochLength = 10000;      //!< QoS epoch, core cycles
    int iwSamplesPerEpoch = 100;    //!< idle-warp samples per epoch
    /**
     * Partial-context-switch cost model: pipeline-drain penalty per
     * preempted TB plus context bytes moved through the memory
     * system (registers + shared memory of the TB).
     */
    int preemptDrainCycles = 450;
    bool chargePreemptTraffic = true;

    /** Base seed mixed into every kernel's instruction stream. */
    std::uint64_t seed = 1;

    /**
     * Check parameter consistency, reporting the first problem as a
     * recoverable error. This is the primary validation entry;
     * callers on user-input paths must propagate the Result.
     */
    Result<void> check() const;

    /**
     * Assert consistency for programmatically built configs (presets
     * and tests): fatal() on the first problem. User-supplied
     * configurations must go through check()/configByName() instead.
     */
    void validate() const;

    /** Registers (4B each) available per SM. */
    int regsPerSm() const { return regFileBytes / 4; }

    /** Warp contexts per SM. */
    int maxWarpsPerSm() const { return maxThreadsPerSm / warpSize; }

    /** Warp contexts managed by each scheduler. */
    int
    warpsPerScheduler() const
    {
        return maxWarpsPerSm() / warpSchedulersPerSm;
    }

    /** One-line summary for logs and reports. */
    std::string summary() const;
};

/** The paper's Table 1 configuration. */
GpuConfig defaultConfig();

/**
 * The Section 4.6 scalability configuration: 56 SMs with two warp
 * schedulers each (Pascal GP100-like).
 */
GpuConfig largeConfig();

/**
 * Look up a configuration preset by name ("default" or "large").
 * Unknown names and fault-injected parse failures (site
 * "config_parse") come back as errors, never fatal().
 */
Result<GpuConfig> configByName(const std::string &name);

/** Names accepted by configByName(). */
std::vector<std::string> knownConfigs();

} // namespace gqos

#endif // GQOS_ARCH_GPU_CONFIG_HH
