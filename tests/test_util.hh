/**
 * @file
 * Shared helpers for the unit/integration tests: small kernel
 * descriptors and a driver that runs a policy on a co-run.
 */

#ifndef GQOS_TESTS_TEST_UTIL_HH
#define GQOS_TESTS_TEST_UTIL_HH

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/kernel_desc.hh"
#include "engine/sim_engine.hh"
#include "gpu/gpu.hh"
#include "policy/sharing_policy.hh"

namespace gqos::test
{

/** A small, fast compute-bound kernel. */
inline KernelDesc
tinyComputeKernel(const std::string &name = "tiny-c")
{
    KernelDesc d;
    d.name = name;
    d.threadsPerTb = 128;
    d.regsPerThread = 16;
    d.smemPerTb = 0;
    d.gridTbs = 64;
    d.warpInstrPerTb = 600;
    d.tbVariance = 0.0;
    KernelPhase p;
    p.memRatio = 0.02;
    p.aluLatency = 4;
    p.hotLines = 256;
    p.hotFraction = 0.9;
    d.phases = {p};
    d.wclass = WorkloadClass::Compute;
    d.seed = 7;
    return d;
}

/** A small memory-bound kernel. */
inline KernelDesc
tinyMemoryKernel(const std::string &name = "tiny-m")
{
    KernelDesc d;
    d.name = name;
    d.threadsPerTb = 128;
    d.regsPerThread = 16;
    d.smemPerTb = 0;
    d.gridTbs = 64;
    d.warpInstrPerTb = 400;
    d.tbVariance = 0.0;
    KernelPhase p;
    p.memRatio = 0.3;
    p.avgTransPerMem = 2.0;
    p.hotFraction = 0.2;
    p.hotLines = 4096;
    p.aluLatency = 5;
    d.phases = {p};
    d.wclass = WorkloadClass::Memory;
    d.seed = 8;
    return d;
}

/** Run @p policy on @p gpu for @p cycles. */
inline void
drive(Gpu &gpu, SharingPolicy &policy, Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c) {
        policy.onCycle(gpu);
        gpu.step();
    }
}

/** Run a bare GPU (targets already set) for @p cycles. */
inline void
drive(Gpu &gpu, Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c)
        gpu.step();
}

/** Mid-epoch quota grants (refills, releases) on SM @p s so far. */
inline std::uint64_t
quotaGrantsOn(const Gpu &gpu, SmId s)
{
    std::uint64_t n = 0;
    for (KernelId k = 0; k < gpu.numKernels(); ++k)
        n += gpu.sm(s).kernelStats(k).quotaRefills;
    return n;
}

/**
 * Run @p policy for @p cycles under the reference engine, one cycle
 * per runUntil(), and check the mid-epoch grant latency: when a step
 * leaves SM s with every resident kernel's quota at or below zero
 * and a TB of a kernel in @p refillable resident, the policy's very
 * next onCycle() grants SM s quota -- unless that cycle is a forced
 * epoch boundary, which re-sets every quota instead. Returns the
 * number of grants checked.
 */
inline int
checkGrantLatency(Gpu &gpu, SharingPolicy &policy,
                  const std::vector<KernelId> &refillable,
                  Cycle cycles)
{
    SimEngine engine(EngineKind::Reference, cycles + 1);
    std::vector<bool> due(gpu.numSms(), false);
    int checked = 0;
    for (Cycle c = 0; c < cycles; ++c) {
        std::vector<std::uint64_t> before;
        for (SmId s = 0; s < gpu.numSms(); ++s)
            before.push_back(quotaGrantsOn(gpu, s));
        bool boundary = gpu.now() % gpu.config().epochLength == 0;
        engine.runUntil(gpu, policy, gpu.now() + 1);
        for (SmId s = 0; s < gpu.numSms(); ++s) {
            if (due[s] && !boundary) {
                EXPECT_GT(quotaGrantsOn(gpu, s), before[s])
                    << "SM " << s << " cycle " << gpu.now() - 1;
                checked++;
            }
            const SmCore &sm = gpu.sm(s);
            due[s] = false;
            for (KernelId k : refillable)
                due[s] = due[s] || (sm.residentTbs(k) > 0 &&
                                    sm.allQuotasExhausted());
        }
    }
    return checked;
}

} // namespace gqos::test

#endif // GQOS_TESTS_TEST_UTIL_HH
