/**
 * @file
 * The paper's QoS policy: fine-grained (SMK) sharing with
 * quota-based dynamic management plus static TB adjustment
 * (Figure 3: QoS Manager + Enhanced TB Scheduler + Enhanced Warp
 * Scheduler).
 */

#ifndef GQOS_POLICY_FINE_GRAIN_QOS_HH
#define GQOS_POLICY_FINE_GRAIN_QOS_HH

#include <memory>

#include "policy/sharing_policy.hh"
#include "qos/quota_controller.hh"
#include "qos/static_alloc.hh"

namespace gqos
{

/** Assembly options for the fine-grained QoS policy. */
struct FineGrainOptions
{
    QuotaOptions quota;
    StaticAllocOptions staticAlloc;
};

/**
 * Fine-grained QoS sharing policy.
 */
class FineGrainQosPolicy : public SharingPolicy
{
  public:
    FineGrainQosPolicy(std::vector<QosSpec> specs,
                       FineGrainOptions opts, Cycle epoch_length);

    void onLaunch(Gpu &gpu) override;

    /**
     * All runtime control (static TB adjustment, sample resets) is
     * driven by the quota controller's epoch events, so its control
     * points are this policy's control points.
     */
    Cycle onCycle(Gpu &gpu) override;

    void attachTelemetry(TraceSink *trace,
                         MetricsRegistry *metrics) override;
    void onFinish(Gpu &gpu) override;
    std::string name() const override;

    const QuotaController &quota() const { return quota_; }

  private:
    QuotaController quota_;
    StaticAllocator staticAlloc_;
    FineGrainOptions opts_;
};

} // namespace gqos

#endif // GQOS_POLICY_FINE_GRAIN_QOS_HH
