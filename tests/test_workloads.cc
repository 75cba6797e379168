/**
 * @file
 * Workload-suite tests: composition, classification, pair/trio
 * enumeration and parameterized per-kernel sanity checks.
 */

#include <gtest/gtest.h>

#include <set>

#include "gpu/gpu.hh"
#include "sm/kernel_run.hh"
#include "tests/test_util.hh"
#include "workloads/parboil.hh"

namespace gqos
{
namespace
{

TEST(Parboil, SuiteHasTenValidKernels)
{
    const auto &suite = parboilSuite();
    ASSERT_EQ(suite.size(), 10u);
    std::set<std::string> names;
    for (const auto &d : suite) {
        EXPECT_NO_FATAL_FAILURE(d.validate());
        names.insert(d.name);
    }
    EXPECT_EQ(names.size(), 10u); // unique names
}

TEST(Parboil, ClassSplitIsFiveFive)
{
    int c = 0, m = 0;
    for (const auto &d : parboilSuite()) {
        (d.wclass == WorkloadClass::Compute ? c : m)++;
    }
    EXPECT_EQ(c, 5);
    EXPECT_EQ(m, 5);
}

TEST(Parboil, LookupByName)
{
    EXPECT_EQ(parboilKernel("sgemm").name, "sgemm");
    EXPECT_TRUE(isParboilKernel("lbm"));
    EXPECT_FALSE(isParboilKernel("bfs")); // excluded by the paper
}

TEST(Parboil, UnknownKernelIsRecoverableError)
{
    auto r = findParboilKernel("nope");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::NotFound);
    // The error lists the valid kernels.
    EXPECT_NE(r.error().message().find("sgemm"), std::string::npos);
    auto ok = findParboilKernel("sgemm");
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value()->name, "sgemm");
}

TEST(ParboilDeath, UnknownKernelIsFatalAtCliWrapper)
{
    EXPECT_EXIT(parboilKernel("nope"),
                ::testing::ExitedWithCode(1), "");
}

TEST(Parboil, NinetyOrderedPairs)
{
    auto pairs = parboilPairs();
    EXPECT_EQ(pairs.size(), 90u);
    std::set<std::pair<std::string, std::string>> uniq(
        pairs.begin(), pairs.end());
    EXPECT_EQ(uniq.size(), 90u);
    for (const auto &[a, b] : pairs)
        EXPECT_NE(a, b);
}

TEST(Parboil, SixtyTrios)
{
    auto trios = parboilTrios();
    EXPECT_EQ(trios.size(), 60u);
    for (const auto &t : trios) {
        EXPECT_NE(t[0], t[1]);
        EXPECT_NE(t[1], t[2]);
        EXPECT_NE(t[0], t[2]);
    }
}

TEST(Parboil, HistoHasShortKernels)
{
    // Section 4.2 explains histo's QoS misses by its short-running
    // kernels; the model must preserve that property.
    const KernelDesc &h = parboilKernel("histo");
    for (const auto &d : parboilSuite()) {
        if (d.name != "histo") {
            EXPECT_LT(h.gridTbs * h.warpInstrPerTb,
                      d.gridTbs * d.warpInstrPerTb);
        }
    }
}

/** Per-kernel parameterized checks. */
class SuiteKernel : public ::testing::TestWithParam<std::string>
{};

TEST_P(SuiteKernel, FitsOnAnSm)
{
    GpuConfig cfg = defaultConfig();
    const KernelDesc &d = parboilKernel(GetParam());
    EXPECT_GE(d.maxTbsPerSm(cfg), 1);
    EXPECT_LE(d.maxTbsPerSm(cfg), cfg.maxTbsPerSm);
}

TEST_P(SuiteKernel, KernelRunTablesAreConsistent)
{
    GpuConfig cfg = defaultConfig();
    const KernelDesc &d = parboilKernel(GetParam());
    KernelRun run(d, 0, cfg);
    EXPECT_EQ(run.numPhases(),
              static_cast<int>(d.phases.size()));
    EXPECT_EQ(run.phaseEnd(run.numPhases() - 1), d.warpInstrPerTb);
    // Phase ends are strictly increasing: every phase is non-empty.
    for (int p = 1; p < run.numPhases(); ++p)
        EXPECT_GT(run.phaseEnd(p), run.phaseEnd(p - 1)) << p;
    // Intensity is deterministic and inside the variance band.
    for (std::uint64_t tb = 0; tb < 64; ++tb) {
        double i1 = run.tbIntensity(tb);
        EXPECT_DOUBLE_EQ(i1, run.tbIntensity(tb));
        EXPECT_GE(i1, 1.0 - d.tbVariance - 1e-9);
        EXPECT_LE(i1, 1.0 + d.tbVariance + 1e-9);
    }
}

TEST_P(SuiteKernel, IsolatedExecutionProgresses)
{
    GpuConfig cfg = defaultConfig();
    const KernelDesc &d = parboilKernel(GetParam());
    Gpu gpu(cfg);
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, d.maxTbsPerSm(cfg));
    test::drive(gpu, 30000);
    EXPECT_GT(gpu.ipc(0), 1.0);
    // DRAM demand can never exceed the configured bandwidth.
    double dram_per_cycle =
        static_cast<double>(gpu.mem().totalDramAccesses()) /
        gpu.now();
    EXPECT_LE(dram_per_cycle,
              cfg.dramSlotsPerCycle * cfg.numMemPartitions * 1.05);
}

TEST_P(SuiteKernel, MemoryKernelsUseMoreBandwidth)
{
    GpuConfig cfg = defaultConfig();
    const KernelDesc &d = parboilKernel(GetParam());
    Gpu gpu(cfg);
    gpu.launch({&d});
    for (int s = 0; s < gpu.numSms(); ++s)
        gpu.setTbTarget(s, 0, d.maxTbsPerSm(cfg));
    test::drive(gpu, 30000);
    double dram_per_cycle =
        static_cast<double>(gpu.mem().totalDramAccesses()) /
        gpu.now();
    double capacity = cfg.dramSlotsPerCycle * cfg.numMemPartitions;
    if (d.wclass == WorkloadClass::Memory) {
        EXPECT_GT(dram_per_cycle, 0.5 * capacity) << d.name;
    } else {
        EXPECT_LT(dram_per_cycle, 0.78 * capacity) << d.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SuiteKernel,
    ::testing::ValuesIn(parboilNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n;
    });

} // anonymous namespace
} // namespace gqos
