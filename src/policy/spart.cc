/**
 * @file
 * Spart baseline implementation.
 */

#include "policy/spart.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gqos
{

namespace
{

/** Relative margin required before a QoS kernel donates an SM. */
constexpr double donateMargin = 0.05;

} // anonymous namespace

SpartPolicy::SpartPolicy(std::vector<QosSpec> specs, Cycle epoch_length)
    : specs_(std::move(specs)), epochLength_(epoch_length)
{
    qosIds_ = qosKernels(specs_);
    nonQosIds_ = nonQosKernels(specs_);
}

int
SpartPolicy::smsOf(KernelId k) const
{
    return static_cast<int>(
        std::count(owner_.begin(), owner_.end(), k));
}

void
SpartPolicy::assignSm(Gpu &gpu, SmId sm, KernelId k)
{
    int old = owner_[sm];
    if (old == k)
        return;
    owner_[sm] = k;
    for (int j = 0; j < gpu.numKernels(); ++j)
        gpu.setTbTarget(sm, j, 0);
    const KernelDesc &d = gpu.kernelDesc(k);
    gpu.setTbTarget(sm, k, d.maxTbsPerSm(gpu.config()));
    if (old >= 0) {
        // SM-granularity context switch: drain everything resident.
        gpu.sm(sm).preemptAll(gpu.now());
    }
}

void
SpartPolicy::onLaunch(Gpu &gpu)
{
    gpu.setQuotaGatingAll(false);
    int nk = gpu.numKernels();
    gqos_assert(static_cast<std::size_t>(nk) == specs_.size());
    if (nk > gpu.numSms())
        gqos_fatal("Spart needs at least one SM per kernel");

    owner_.assign(gpu.numSms(), -1);
    instrAtEpochStart_.assign(nk, 0);
    ipcEpoch_.assign(nk, 0.0);

    // Initial equal partition (remainder SMs go to QoS kernels
    // first, as they carry requirements).
    std::vector<int> order = qosIds_;
    order.insert(order.end(), nonQosIds_.begin(), nonQosIds_.end());
    for (int s = 0; s < gpu.numSms(); ++s) {
        int k = order[s % order.size()];
        owner_[s] = -1;
        assignSm(gpu, s, k);
    }
}

int
SpartPolicy::pickDonor(KernelId needy) const
{
    // Prefer the non-QoS kernel with the most SMs; every kernel
    // keeps at least one SM.
    int best = -1, best_sms = 1;
    for (int j : nonQosIds_) {
        int n = smsOf(j);
        if (n > best_sms) {
            best_sms = n;
            best = j;
        }
    }
    if (best >= 0)
        return best;

    // Otherwise a QoS kernel that can spare an SM and still make
    // its goal.
    for (int j : qosIds_) {
        if (j == needy)
            continue;
        int n = smsOf(j);
        if (n > 1 &&
            ipcEpoch_[j] * (n - 1) / n >
                specs_[j].ipcGoal * (1.0 + donateMargin)) {
            return j;
        }
    }
    return -1;
}

void
SpartPolicy::hillClimb(Gpu &gpu)
{
    for (int k : qosIds_) {
        int n = smsOf(k);
        if (ipcEpoch_[k] < specs_[k].ipcGoal) {
            int donor = pickDonor(k);
            if (donor < 0)
                continue;
            // Take the donor's highest-numbered SM.
            for (int s = gpu.numSms() - 1; s >= 0; --s) {
                if (owner_[s] == donor) {
                    assignSm(gpu, s, k);
                    break;
                }
            }
        } else if (!nonQosIds_.empty() && n > 1 &&
                   ipcEpoch_[k] * (n - 1) / n >
                       specs_[k].ipcGoal * (1.0 + donateMargin)) {
            // Comfortable margin: donate one SM to the smallest
            // non-QoS partition.
            int recv = nonQosIds_[0];
            for (int j : nonQosIds_) {
                if (smsOf(j) < smsOf(recv))
                    recv = j;
            }
            for (int s = gpu.numSms() - 1; s >= 0; --s) {
                if (owner_[s] == k) {
                    assignSm(gpu, s, recv);
                    break;
                }
            }
        }
    }
}

Cycle
SpartPolicy::onCycle(Gpu &gpu)
{
    Cycle now = gpu.now();
    Cycle due = epochStart_ + epochLength_;
    if (now < due)
        return due;
    Cycle window = now - epochStart_;
    for (int k = 0; k < gpu.numKernels(); ++k) {
        std::uint64_t instr = gpu.threadInstrs(k);
        if (window > 0) {
            ipcEpoch_[k] = static_cast<double>(
                instr - instrAtEpochStart_[k]) / window;
        }
        instrAtEpochStart_[k] = instr;
    }
    epochStart_ = now;
    epochIndex_++;
    if (now > 0)
        hillClimb(gpu);
    return now;
}

} // namespace gqos
