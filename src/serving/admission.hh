/**
 * @file
 * SLO-aware admission control with graceful degradation.
 *
 * Every tenant owns a bounded FIFO admission queue; the controller
 * decides, per arrival, whether the request enters its queue, and
 * per dispatch opportunity, whether a queued request may start.
 * Decisions follow a four-level degradation ladder driven by the
 * aggregate queue backlog (with hysteresis so the level does not
 * flap at a threshold):
 *
 *   L0 normal    admit everything that fits its queue
 *   L1 pressure  shed BestEffort arrivals
 *   L2 degrade   + reject Elastic arrivals whose projected
 *                  completion misses their SLO, and hold Elastic
 *                  dispatch while a Guaranteed request is queued
 *   L3 overload  + shed all Elastic arrivals
 *
 * Guaranteed tenants are never shed or projection-rejected: their
 * only rejection path is their own queue overflowing — the
 * backpressure contract. Queued requests whose deadline passes
 * before dispatch are abandoned (deadline-based queue abandonment),
 * so queues drain even when the GPU cannot keep up.
 *
 * Projection uses the caller-supplied per-tenant service-time
 * estimate (EWMA of observed grid latencies): a request arriving
 * into a queue of depth d is projected to complete after
 * (d + 1) * estimate cycles, since a tenant executes one grid at a
 * time. Fault sites: "admission_project" fails the projection
 * (the controller fails open and admits on queue space alone);
 * "queue_overflow" synthetically declares the queue full.
 */

#ifndef GQOS_SERVING_ADMISSION_HH
#define GQOS_SERVING_ADMISSION_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "arch/types.hh"
#include "serving/tenant.hh"

namespace gqos
{

/** What happened to one arrival. */
enum class AdmitOutcome : std::uint8_t
{
    Admitted,
    RejectedQueueFull, //!< bounded-queue backpressure
    RejectedShed,      //!< degradation ladder shed the class
    RejectedProjected  //!< projected completion misses the SLO
};

const char *toString(AdmitOutcome o);

/** One queued (admitted, not yet dispatched) request. */
struct QueuedRequest
{
    std::uint64_t seq = 0;
    Cycle arrival = 0;
    Cycle deadline = 0; //!< arrival + sloCycles (cycleNever if none)
};

class AdmissionController
{
  public:
    explicit AdmissionController(std::vector<TenantSpec> tenants);

    /**
     * Decide one arrival. @p projected_service is the tenant's
     * current service-time estimate in cycles (0 = no estimate
     * yet). On Admitted the request is queued; every other outcome
     * leaves the queues untouched.
     */
    AdmitOutcome onArrival(int tenant, std::uint64_t seq, Cycle now,
                           double projected_service);

    /**
     * Drop queued requests of @p tenant whose deadline has passed.
     * Returns the abandoned requests (for telemetry).
     */
    std::vector<QueuedRequest> expireAbandoned(int tenant, Cycle now);

    /**
     * May @p tenant start its next queued request now? False for
     * Elastic tenants at L2+ while any Guaranteed tenant has queued
     * work (the degradation ladder's hold step). BestEffort dispatch
     * is held at L3.
     */
    bool dispatchAllowed(int tenant) const;

    /** Front of @p tenant's queue (nullptr when empty). */
    const QueuedRequest *front(int tenant) const;

    /** Remove the front request of @p tenant (must exist). */
    void popFront(int tenant);

    /**
     * Re-evaluate the ladder level from the current backlog.
     * Returns true when the level changed.
     */
    bool updateLevel();

    int level() const { return level_; }
    std::size_t queueDepth(int tenant) const;
    std::size_t totalBacklog() const;

    /** Drain all queues (shutdown); returns per-tenant drop counts. */
    std::vector<std::uint64_t> drainAll();

  private:
    bool guaranteedBacklogged() const;

    std::vector<TenantSpec> tenants_;
    std::vector<std::deque<QueuedRequest>> queues_;
    std::size_t capTotal_ = 0;
    int level_ = 0;
};

} // namespace gqos

#endif // GQOS_SERVING_ADMISSION_HH
