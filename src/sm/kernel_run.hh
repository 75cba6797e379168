/**
 * @file
 * Run-time representation of a kernel participating in a co-run:
 * the KernelDesc plus precomputed tables the SM hot path needs to
 * generate warp instruction streams cheaply.
 */

#ifndef GQOS_SM_KERNEL_RUN_HH
#define GQOS_SM_KERNEL_RUN_HH

#include <cstdint>
#include <vector>

#include "arch/kernel_desc.hh"
#include "arch/types.hh"

namespace gqos
{

/** Precomputed per-phase constants for the instruction generator. */
struct PhaseRt
{
    double memThresh;    //!< uniform() < memThresh => global access
    double sharedThresh; //!< < sharedThresh => shared-memory op
    double sfuThresh;    //!< < sfuThresh => SFU op
    double storeFraction;
    double hotFraction;
    std::uint32_t hotLines;
    int aluLatency;
    int lanes;           //!< active lanes per instruction
    int transBase;       //!< floor(avgTransPerMem)
    double transFrac;    //!< fractional part (probabilistic +1)
    int smemLatency;     //!< shared-memory latency incl. conflicts
};

/**
 * A kernel bound into a co-run: descriptor, identity and the
 * precomputed generation tables.
 */
class KernelRun
{
  public:
    /**
     * @param desc behaviour model (must outlive the run)
     * @param id kernel index within the co-run
     * @param cfg machine configuration (for latency precomputation)
     */
    KernelRun(const KernelDesc &desc, KernelId id,
              const GpuConfig &cfg);

    const KernelDesc &desc() const { return *desc_; }
    KernelId id() const { return id_; }

    /** First instruction index that is outside phase @p p. */
    std::uint64_t phaseEnd(int p) const { return phaseEnd_[p]; }

    const PhaseRt &phase(int p) const { return phases_[p]; }
    int numPhases() const { return static_cast<int>(phases_.size()); }

    /** Base address of the kernel's hot (reused) data region. */
    Addr hotBase() const { return hotBase_; }

    /** Base address of the kernel's cold (streaming) region. */
    Addr coldBase() const { return coldBase_; }

    /** Stream seed for (tb_seq, warp_in_tb). */
    std::uint64_t warpSeed(std::uint64_t tb_seq, int warp_in_tb) const;

    /**
     * Intensity factor of the TB group containing @p tb_seq
     * (grid-position behaviour variance, KernelDesc::tbVariance).
     */
    double tbIntensity(std::uint64_t tb_seq) const;

  private:
    const KernelDesc *desc_;
    KernelId id_;
    std::vector<PhaseRt> phases_;
    std::vector<std::uint64_t> phaseEnd_;
    Addr hotBase_;
    Addr coldBase_;
    std::uint64_t seed_;
};

} // namespace gqos

#endif // GQOS_SM_KERNEL_RUN_HH
