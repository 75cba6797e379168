/**
 * @file
 * Open-loop kernel-launch arrival processes.
 *
 * The serving driver consumes a merged, time-ordered stream of
 * per-tenant launch requests. Streams come from seeded generators
 * (Poisson, bursty/MMPP-2, diurnal) or from a replayable JSONL
 * trace file; the generators are fully deterministic — the same
 * (seed, config) always yields the same arrival vector, and a
 * generated stream written with writeArrivalTrace() and loaded
 * back reproduces the original byte-for-byte on re-write.
 *
 * Open loop means arrivals do not wait for the server: load beyond
 * capacity accumulates in the admission queues, which is exactly
 * the overload regime the admission controller is built for.
 */

#ifndef GQOS_SERVING_ARRIVAL_HH
#define GQOS_SERVING_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

/** One kernel-launch request. */
struct Arrival
{
    Cycle cycle = 0;         //!< arrival time
    int tenant = 0;          //!< tenant index
    std::uint64_t seq = 0;   //!< per-tenant sequence number
};

/** Arrival-process families. */
enum class ArrivalKind : std::uint8_t
{
    Poisson, //!< memoryless, constant mean rate
    Bursty,  //!< two-state MMPP: calm / burst phases
    Diurnal  //!< sinusoidally modulated rate (compressed day)
};

const char *toString(ArrivalKind kind);
Result<ArrivalKind> parseArrivalKind(const std::string &name);

/**
 * Parameters of one generated arrival stream. The bursty and
 * diurnal shapes (burst factor and fraction, phase period, diurnal
 * period and depth) are fixed constants of the generators.
 */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean arrivals per 1000 cycles, *per tenant*. */
    double ratePerKcycle = 1.0;
    /** Generate arrivals in [0, horizon). */
    Cycle horizon = 500000;
    int numTenants = 4;
    std::uint64_t seed = 1;

    Result<void> check() const;
};

/**
 * Generate the merged arrival stream: per-tenant independent
 * processes seeded from mixSeed(seed, tenant, kind), merged in
 * (cycle, tenant) order with per-tenant seq numbers assigned in
 * arrival order. The time-averaged rate of every family equals
 * ratePerKcycle by construction.
 */
std::vector<Arrival> generateArrivals(const ArrivalConfig &cfg);

/**
 * Write @p arrivals as a JSONL trace, one
 * {"cycle":..,"tenant":..,"seq":..} object per line.
 */
Result<void> writeArrivalTrace(const std::string &path,
                               const std::vector<Arrival> &arrivals);

/**
 * Load a JSONL arrival trace. Malformed lines are skipped with a
 * warning (and counted in @p malformed when non-null) — a damaged
 * trace degrades, it does not kill the server. Fault site
 * "arrival_parse" forces per-line parse failures for robustness
 * testing. Entries are re-sorted into (cycle, tenant, seq) order.
 * A field that is not a plain base-10 unsigned integer (parseUnsigned,
 * common/cli.hh) or a tenant outside [0, numTenants) makes its line
 * malformed.
 */
Result<std::vector<Arrival>> loadArrivalTrace(
    const std::string &path, int numTenants,
    std::uint64_t *malformed = nullptr);

} // namespace gqos

#endif // GQOS_SERVING_ARRIVAL_HH
