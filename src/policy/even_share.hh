/**
 * @file
 * QoS-oblivious fine-grained sharing (SMK-style even split) and the
 * isolated-execution policy used to measure IPCisolated baselines.
 */

#ifndef GQOS_POLICY_EVEN_SHARE_HH
#define GQOS_POLICY_EVEN_SHARE_HH

#include "policy/sharing_policy.hh"

namespace gqos
{

/**
 * Every kernel is resident on every SM with an equal thread share;
 * no quota gating. With a single kernel this is isolated execution
 * on the full GPU.
 */
class EvenSharePolicy : public SharingPolicy
{
  public:
    EvenSharePolicy() = default;

    void onLaunch(Gpu &gpu) override;

    /** Static policy: never takes a runtime action. */
    Cycle onCycle(Gpu &) override { return cycleNever; }

    std::string name() const override { return "even"; }
};

} // namespace gqos

#endif // GQOS_POLICY_EVEN_SHARE_HH
