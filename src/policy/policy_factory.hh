/**
 * @file
 * Name-based construction of sharing policies, used by the harness
 * and the benchmark binaries.
 */

#ifndef GQOS_POLICY_POLICY_FACTORY_HH
#define GQOS_POLICY_POLICY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/result.hh"
#include "policy/sharing_policy.hh"
#include "qos/qos_spec.hh"

namespace gqos
{

/**
 * Build a policy by name. Known names:
 *
 *  - "rollover", "elastic", "naive": fine-grained QoS with the given
 *    quota scheme (history adjustment and static TB adjustment on)
 *  - "rollover-time": CPU-style prioritized Rollover (Section 4.5)
 *  - "<scheme>-nohist": history-based quota adjustment disabled
 *  - "<scheme>-nostatic": runtime TB adjustment disabled
 *  - "spart": spatial partitioning with hill climbing
 *  - "even": QoS-oblivious even fine-grained sharing
 *
 * Unknown names come back as a NotFound error, and a QoS spec with a
 * non-positive IPC goal as an InvalidArgument error; callers on
 * user-input paths propagate them, the CLI boundary turns them into
 * fatal().
 */
Result<std::unique_ptr<SharingPolicy>> makePolicy(
    const std::string &scheme, std::vector<QosSpec> specs,
    const GpuConfig &cfg);

/** All policy names accepted by makePolicy(). */
std::vector<std::string> knownPolicies();

} // namespace gqos

#endif // GQOS_POLICY_POLICY_FACTORY_HH
