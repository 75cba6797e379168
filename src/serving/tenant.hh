/**
 * @file
 * Tenant model of the online serving driver.
 *
 * A tenant is one stream of kernel-launch requests sharing the GPU
 * with the other tenants. Each tenant binds one KernelId slot for
 * the whole serving run (the paper's co-run model keeps kernels
 * resident); individual requests become *grids* of that kernel,
 * started explicitly through Gpu::startGrid() as the admission
 * controller lets them through.
 *
 * QoS classes order the graceful-degradation ladder: BestEffort
 * traffic is shed first, Elastic tenants are degraded (held back,
 * projection-rejected) next, and Guaranteed tenants are rejected
 * only when their own bounded queue overflows.
 */

#ifndef GQOS_SERVING_TENANT_HH
#define GQOS_SERVING_TENANT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "arch/kernel_desc.hh"
#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

/** Service class of a tenant, ordered by protection level. */
enum class QosClass : std::uint8_t
{
    Guaranteed, //!< SLO-backed; rejected only on its own queue full
    Elastic,    //!< SLO-backed; degraded before Guaranteed suffers
    BestEffort  //!< no admission protection; shed first
};

/** Display / spec name of a QoS class. */
const char *toString(QosClass c);

/** Parse "guaranteed" / "elastic" / "besteffort" ("best-effort"). */
Result<QosClass> parseQosClass(const std::string &name);

/** Static description of one serving tenant. */
struct TenantSpec
{
    std::string name;    //!< report / trace label
    std::string kernel;  //!< Parboil suite kernel backing requests
    QosClass qosClass = QosClass::Elastic;
    /**
     * Share goal while a request is running, as a fraction of the
     * kernel's isolated IPC (the repo-wide goal convention); 0
     * leaves the tenant non-QoS at the sharing policy. The driver
     * converts it to an absolute IPC goal via a short isolated
     * baseline run.
     */
    double goalFrac = 0.0;
    /** Launch-to-completion deadline in cycles (0 = no SLO). */
    Cycle sloCycles = 0;
    /** Bounded admission-queue capacity (backpressure limit). */
    std::size_t queueCap = 16;

    /** Consistency check, recoverable (user-supplied specs). */
    Result<void> check() const;
};

/**
 * Parse one "name:kernel:class:goal:slo:queue" spec. goal, slo and
 * queue may be omitted from the right ("web:sgemm:guaranteed" uses
 * the defaults above). An slo of 0 means no SLO; a queue of 0 is
 * rejected.
 */
Result<TenantSpec> parseTenantSpec(const std::string &text);

/** Parse a ";"-separated list of tenant specs. */
Result<std::vector<TenantSpec>> parseTenantList(
    const std::string &text);

/**
 * The default 4-tenant serving mix: two Guaranteed tenants (one
 * compute-bound, one memory-bound), one Elastic and one BestEffort,
 * spanning the paper's workload classes.
 */
std::vector<TenantSpec> defaultTenantMix();

/**
 * Request-sized kernel descriptor for @p spec: the named Parboil
 * kernel's behaviour model with a small grid (one request ~= one
 * grid, hundreds of cycles of exclusive work) so that thousands of
 * requests fit a tractable simulation. Deterministic per spec.
 */
Result<KernelDesc> servingKernelDesc(const TenantSpec &spec);

} // namespace gqos

#endif // GQOS_SERVING_TENANT_HH
