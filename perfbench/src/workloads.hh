/**
 * @file
 * The benchmark's three workloads, their seeded inputs, the
 * correctness gate and the metrics they report.
 *
 *  - sweep_cold: every Parboil pair and trio once, with seeded policy
 *    and goal assignment, run case by case through runSweep on one
 *    worker against a fresh result cache, telemetry off.
 *  - serving_overload: ServingDriver load points at 1x and 4x of the
 *    standard tenant mix's near-capacity rate, one after another.
 *  - sweep_retrace: a smaller seeded sample re-simulated case by case
 *    on one worker, with the result cache off and an epoch trace and
 *    a run report attached.
 *
 * A workload repeats rounds (fresh caches, fresh set-up) until the
 * requested time has passed and reports medians over rounds, its host
 * times scaled to a reference host speed measured by a HostProbe.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"
#include "harness/sweep.hh"
#include "serving/arrival.hh"

namespace perfbench
{

/** Simulated cycles and warm-up of every sweep case (smoke scale). */
constexpr gqos::Cycle caseCycles = 20000;
constexpr gqos::Cycle caseWarmup = 4000;

/** One benchmark invocation. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Private scratch directory for caches, traces and reports. */
    std::string workdir;
    /** Where the traced run writes its spans ("" = workdir). */
    std::string spansOut;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Base, sample count or other context for the human table. */
    std::string note;
};

/** What a workload reports. */
struct WorkloadOutput
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> log;
};

/** Names accepted by runWorkload(). */
const std::vector<std::string> &workloadNames();

/** The paper's compute/memory split of the suite (Section 4.1). */
bool isMemoryBound(const std::string &kernel);

/**
 * sweep_cold's inputs: all 90 ordered pairs and 60 trios once, with
 * policies balanced within each class (C+C, C+M, M+C, M+M, trios)
 * and goals drawn from the paper's goal sweeps.
 */
std::vector<gqos::SweepCase> sampleColdCases(std::uint64_t seed);

/**
 * sweep_retrace's inputs: 20 pairs (5 per class, one per policy) and
 * 10 trios (2 per policy, half with two QoS kernels), balanced so
 * every kernel appears equally often whatever the seed.
 */
std::vector<gqos::SweepCase> sampleRetraceCases(std::uint64_t seed);

/** One serving load point's seeded arrival stream. */
struct LoadPoint
{
    double load = 1.0;
    gqos::ArrivalConfig arrivals;
};

/** serving_overload's load points: 1x and 4x, several streams each. */
std::vector<LoadPoint> servingLoadPoints(std::uint64_t seed);

/** Run one workload as configured. */
gqos::Result<WorkloadOutput> runWorkload(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
