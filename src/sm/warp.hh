/**
 * @file
 * Warp context and the decoded next instruction.
 */

#ifndef GQOS_SM_WARP_HH
#define GQOS_SM_WARP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "common/rng.hh"

namespace gqos
{

/** Decoded (pre-generated) next warp instruction. */
struct NextInstr
{
    InstrClass cls = InstrClass::Alu;
    std::uint8_t lanes = warpSize;   //!< active lanes (divergence)
    std::uint16_t latency = 1;       //!< dependent-issue latency
    std::uint8_t transLeft = 0;      //!< memory transactions to issue
};

/** Scheduling states of a warp context. */
enum class WarpState : std::uint8_t
{
    Invalid,   //!< slot free
    Live,      //!< executing (ready or waiting)
    Draining,  //!< TB being preempted; no further issue
    Finished   //!< retired all instructions of the current TB
};

/**
 * One warp context on an SM. Plain data; the SmCore owns the arrays
 * and all behaviour.
 *
 * Laid out as two host cache lines: the first holds everything that
 * decode (SmCore::generateNext) and issue read or write on every
 * instruction, the second the memory-streaming and lifecycle fields
 * that only memory instructions, dispatch and preemption touch.
 */
struct alignas(64) Warp
{
    // ---- first line: decode and issue ----
    Rng rng;                  //!< deterministic stream generator
    std::uint64_t instrIdx = 0; //!< warp instructions retired in TB
    float intensity = 1.0f;   //!< TB-group behaviour factor
    KernelId kernel = invalidKernel;
    NextInstr next;
    WarpState state = WarpState::Invalid;
    std::uint8_t phaseIdx = 0;

    // ---- second line: memory streams and lifecycle ----
    Cycle memDoneAt = 0;      //!< completion of in-flight mem instr
    std::uint64_t coldCursor = 0; //!< streaming-address cursor
    std::uint64_t age = 0;    //!< global dispatch order (GTO oldest)
    Addr coldBase = 0;        //!< this activation's streaming region
    std::int16_t tbSlot = -1;
};

static_assert(sizeof(Warp) == 128, "Warp spans two host cache lines");
#define GQOS_IN_FIRST_LINE(field)                                   \
    static_assert(offsetof(Warp, field) + sizeof(Warp::field) <= 64, \
                  #field " is read by decode/issue: first line")
GQOS_IN_FIRST_LINE(rng);
GQOS_IN_FIRST_LINE(instrIdx);
GQOS_IN_FIRST_LINE(intensity);
GQOS_IN_FIRST_LINE(kernel);
GQOS_IN_FIRST_LINE(next);
GQOS_IN_FIRST_LINE(state);
GQOS_IN_FIRST_LINE(phaseIdx);
#undef GQOS_IN_FIRST_LINE

/** One thread-block slot on an SM. */
struct TbSlot
{
    std::vector<std::int16_t> warpSlots; //!< warp contexts held
    KernelId kernel = invalidKernel;
    std::int16_t warpsTotal = 0;
    std::int16_t warpsFinished = 0;
    std::uint64_t tbSeq = 0;  //!< global dispatch sequence number
    bool valid = false;
    bool draining = false;    //!< being preempted
};

} // namespace gqos

#endif // GQOS_SM_WARP_HH
