/**
 * @file
 * Fundamental architectural types shared across the simulator.
 */

#ifndef GQOS_ARCH_TYPES_HH
#define GQOS_ARCH_TYPES_HH

#include <cstdint>

namespace gqos
{

/** Simulated core clock cycle count. */
using Cycle = std::uint64_t;

/** Byte address in the simulated device memory space. */
using Addr = std::uint64_t;

/** Kernel identifier, unique within one co-run. */
using KernelId = int;

/** Streaming-multiprocessor index. */
using SmId = int;

/** Sentinel for "no kernel". */
constexpr KernelId invalidKernel = -1;

/**
 * Sentinel cycle meaning "never" / "no scheduled event". Next-event
 * bounds (SmCore::cycle(), Gpu::nextEventAt(),
 * SharingPolicy::nextControlAt()) return it when nothing will ever
 * happen without external input (see engine/sim_engine.hh).
 */
constexpr Cycle cycleNever = ~Cycle{0};

/** Maximum concurrent kernels in one co-run. */
constexpr int maxKernels = 8;

/** SIMD width of the machine: threads per warp. */
constexpr int warpSize = 32;

/** Cache-line / memory-transaction size in bytes. */
constexpr int lineSizeBytes = 128;

/** Classes of dynamic warp instructions in the performance model. */
enum class InstrClass : std::uint8_t
{
    Alu,        //!< integer/float pipeline op
    Sfu,        //!< special-function op (long latency, no memory)
    SharedMem,  //!< scratchpad access (bank-conflict sensitive)
    GlobalLoad, //!< global memory read through L1/L2/DRAM
    GlobalStore //!< global memory write (write-through, no stall)
};

/** Workload classification used by the evaluation (Figure 7). */
enum class WorkloadClass : std::uint8_t
{
    Compute, //!< compute-intensive ("C")
    Memory   //!< memory-intensive ("M")
};

/** Short display string for a workload class. */
inline const char *
toString(WorkloadClass wc)
{
    return wc == WorkloadClass::Compute ? "C" : "M";
}

} // namespace gqos

#endif // GQOS_ARCH_TYPES_HH
