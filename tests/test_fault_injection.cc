/**
 * @file
 * Fault-injection layer: spec parsing, deterministic replay, and the
 * headline robustness guarantee — a sweep with cache faults enabled
 * produces results identical to a fault-free run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "arch/gpu_config.hh"
#include "common/fault_injection.hh"
#include "harness/runner.hh"
#include "serving/arrival.hh"
#include "serving/server.hh"
#include "serving/tenant.hh"

namespace gqos
{
namespace
{

/** Restores a pristine injector before and after every test. */
struct FaultFixture : public ::testing::Test
{
    FaultFixture() { FaultInjector::instance().clear(); }
    ~FaultFixture() override { FaultInjector::instance().clear(); }
};

TEST_F(FaultFixture, SpecParsingAcceptsWellFormedEntries)
{
    auto &fi = FaultInjector::instance();
    EXPECT_EQ(fi.configure("cache_write:0.5,config_parse:0.25"), 2);
    EXPECT_TRUE(fi.enabled());
    fi.clear();
    EXPECT_FALSE(fi.enabled());
    EXPECT_EQ(fi.configure(""), 0);
}

TEST_F(FaultFixture, SpecParsingSkipsMalformedEntries)
{
    auto &fi = FaultInjector::instance();
    // no colon / bad number / probability out of range: all skipped
    // without killing the run, valid entries still land.
    EXPECT_EQ(fi.configure("cache_write,x:abc,y:1.5,z:-0.1,"
                           "cache_read:0.5"),
              1);
    EXPECT_TRUE(fi.enabled());
    EXPECT_TRUE(fi.checked("cache_write") == 0);
}

TEST_F(FaultFixture, SpecParsingRejectsNonFiniteAndHexRates)
{
    auto &fi = FaultInjector::instance();
    EXPECT_EQ(fi.configure("cache_write:nan,cache_read:-nan,"
                           "config_parse:0x1p-1,x:0.5e"),
              0);
    EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultFixture, SignedSeedFallsBackToSeedOne)
{
    // A signed seed is rejected, not wrapped to 2^64 - 1.
    auto draws = [](const char *seed) {
        ::setenv(FaultInjector::specEnvVar, "cache_write:0.5", 1);
        ::setenv(FaultInjector::seedEnvVar, seed, 1);
        auto &fi = FaultInjector::instance();
        fi.reloadFromEnv();
        ::unsetenv(FaultInjector::specEnvVar);
        ::unsetenv(FaultInjector::seedEnvVar);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(fi.shouldFail("cache_write"));
        return out;
    };
    EXPECT_EQ(draws("-1"), draws("1"));
    EXPECT_NE(draws("7"), draws("1"));
}

TEST_F(FaultFixture, ZeroProbabilitySiteNeverFires)
{
    auto &fi = FaultInjector::instance();
    fi.setRate("cache_write", 0.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(fi.shouldFail("cache_write"));
    EXPECT_EQ(fi.injected("cache_write"), 0u);
}

TEST_F(FaultFixture, CertainSiteAlwaysFires)
{
    auto &fi = FaultInjector::instance();
    fi.setRate("cache_write", 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(fi.shouldFail("cache_write"));
    EXPECT_EQ(fi.checked("cache_write"), 100u);
    EXPECT_EQ(fi.injected("cache_write"), 100u);
}

TEST_F(FaultFixture, UnconfiguredSiteIsFree)
{
    auto &fi = FaultInjector::instance();
    fi.setRate("cache_write", 0.5);
    EXPECT_FALSE(fi.shouldFail("quota_account"));
    EXPECT_EQ(fi.injected("quota_account"), 0u);
    EXPECT_FALSE(faultAt("no_such_site"));
}

TEST_F(FaultFixture, SameSeedReplaysTheSameDecisions)
{
    auto &fi = FaultInjector::instance();
    fi.setRate("cache_write", 0.5);
    fi.reseed(77);
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(fi.shouldFail("cache_write"));
    fi.reseed(77);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(fi.shouldFail("cache_write"), first[i]) << i;
    // A fair coin should have fired at least once either way.
    EXPECT_GT(fi.injected("cache_write"), 0u);
}

TEST_F(FaultFixture, EnvSpecIsLoadedOnReload)
{
    auto &fi = FaultInjector::instance();
    ::setenv(FaultInjector::specEnvVar, "cache_write:1.0", 1);
    ::setenv(FaultInjector::seedEnvVar, "5", 1);
    fi.reloadFromEnv();
    ::unsetenv(FaultInjector::specEnvVar);
    ::unsetenv(FaultInjector::seedEnvVar);
    EXPECT_TRUE(fi.enabled());
    EXPECT_TRUE(fi.shouldFail("cache_write"));
    fi.clear();
    fi.reloadFromEnv(); // env now empty: everything off
    EXPECT_FALSE(fi.enabled());
}

TEST_F(FaultFixture, ConfigParseSiteSurfacesAsFaultInjected)
{
    FaultInjector::instance().setRate("config_parse", 1.0);
    auto r = configByName("default");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::FaultInjected);
    FaultInjector::instance().clear();
    EXPECT_TRUE(configByName("default").ok());
}

// ---------------------------------------------------------------
// Acceptance: a goal sweep with cache-write faults enabled finishes
// and produces results identical to the fault-free sweep.
// ---------------------------------------------------------------

struct FaultSweepFixture : public FaultFixture
{
    FaultSweepFixture()
    {
        dir = "/tmp/gqos_fault_cache_" +
              std::to_string(::getpid());
        opts.cycles = 50000;
        opts.warmupCycles = 10000;
        opts.cacheDir = dir;
    }

    ~FaultSweepFixture() override
    {
        std::filesystem::remove_all(dir);
    }

    std::vector<CaseResult>
    sweep()
    {
        Runner runner = Runner::make(opts).value();
        std::vector<CaseResult> out;
        for (double goal : {0.5, 0.7, 0.9}) {
            out.push_back(runner.run({"sgemm", "lbm"},
                                     {goal, 0.0},
                                     "rollover").value());
        }
        return out;
    }

    std::string dir;
    Runner::Options opts;
};

TEST_F(FaultSweepFixture, CacheWriteFaultsDoNotChangeResults)
{
    auto &fi = FaultInjector::instance();
    std::vector<CaseResult> clean = sweep();
    std::filesystem::remove_all(dir);

    fi.setRate("cache_write", 0.5);
    fi.reseed(7);
    std::vector<CaseResult> faulty = sweep();
    // Some appends must actually have been attempted.
    EXPECT_GT(fi.checked("cache_write"), 0u);
    fi.clear();

    ASSERT_EQ(faulty.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        ASSERT_EQ(faulty[i].kernels.size(),
                  clean[i].kernels.size());
        for (std::size_t k = 0; k < clean[i].kernels.size(); ++k) {
            EXPECT_DOUBLE_EQ(faulty[i].kernels[k].ipc,
                             clean[i].kernels[k].ipc);
            EXPECT_DOUBLE_EQ(faulty[i].kernels[k].ipcIsolated,
                             clean[i].kernels[k].ipcIsolated);
        }
        EXPECT_EQ(faulty[i].preemptions, clean[i].preemptions);
    }
}

TEST_F(FaultSweepFixture, CorruptedAppendsAreHealedOnReload)
{
    auto &fi = FaultInjector::instance();
    std::vector<CaseResult> clean = sweep();
    std::filesystem::remove_all(dir);

    // Corrupt ~half the sealed lines as they are written.
    fi.setRate("cache_corrupt", 0.5);
    fi.reseed(11);
    sweep();
    fi.clear();

    // A fresh runner must quarantine the damaged lines (CRC) and
    // re-simulate to the same numbers.
    Runner runner = Runner::make(opts).value();
    std::vector<CaseResult> healed;
    for (double goal : {0.5, 0.7, 0.9}) {
        healed.push_back(runner.run({"sgemm", "lbm"},
                                    {goal, 0.0},
                                    "rollover").value());
    }
    ASSERT_EQ(healed.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        EXPECT_DOUBLE_EQ(healed[i].kernels[0].ipc,
                         clean[i].kernels[0].ipc);
        EXPECT_DOUBLE_EQ(healed[i].kernels[1].ipc,
                         clean[i].kernels[1].ipc);
    }
}

// ---------------------------------------------------------------
// Serving-path fault sites: admission and arrival-parse sabotage
// must degrade the run, never wedge or corrupt its accounting, and
// scoped decision streams must make the outcome a function of the
// case index alone (parallelism-independent).
// ---------------------------------------------------------------

struct ServingFaultFixture : public FaultFixture
{
    ServingReport
    serve()
    {
        std::vector<TenantSpec> mix(3);
        mix[0] = {"g", "sgemm", QosClass::Guaranteed, 0.4, 40000, 4};
        mix[1] = {"e", "stencil", QosClass::Elastic, 0.2, 60000, 4};
        mix[2] = {"b", "histo", QosClass::BestEffort, 0.0, 80000, 4};
        ServingOptions opts;
        opts.caseKey = "fault-test";
        opts.drainGrace = 100000;
        ArrivalConfig cfg;
        cfg.ratePerKcycle = 0.2;
        cfg.horizon = 150000;
        cfg.numTenants = 3;
        cfg.seed = 13;
        auto driver = ServingDriver::make(mix, opts);
        EXPECT_TRUE(driver.ok());
        auto report =
            driver.value()->run(generateArrivals(cfg), nullptr);
        EXPECT_TRUE(report.ok());
        return report.value();
    }
};

TEST_F(ServingFaultFixture, AdmissionFaultsDegradeButConserve)
{
    auto &fi = FaultInjector::instance();
    fi.configure("queue_overflow:0.2,admission_project:0.2");
    fi.reseed(3);
    fi.beginScope(0);
    ServingReport r = serve();
    EXPECT_GT(fi.injected("queue_overflow"), 0u);
    fi.clear();
    // Sabotaged admission loses requests, never accounting.
    std::uint64_t forced = 0;
    for (const TenantServingStats &t : r.tenants) {
        EXPECT_EQ(t.arrivals, t.admitted + t.rejectedQueueFull +
                                  t.rejectedShed +
                                  t.rejectedProjected);
        EXPECT_EQ(t.admitted, t.completed + t.abandoned +
                                  t.droppedAtShutdown);
        forced += t.rejectedQueueFull;
    }
    EXPECT_GT(forced, 0u);
    EXPECT_FALSE(r.engineStalled);
    EXPECT_FALSE(r.anyTenantStalled);
}

TEST_F(ServingFaultFixture, ScopedFaultsReplayByCaseIndex)
{
    auto &fi = FaultInjector::instance();
    fi.configure("queue_overflow:0.3");
    fi.reseed(17);

    fi.beginScope(4);
    ServingReport a = serve();
    // Interleave a different scope's decisions, as a concurrent
    // worker would, then replay scope 4: identical outcome.
    fi.beginScope(2);
    serve();
    fi.beginScope(4);
    ServingReport b = serve();
    fi.clear();

    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].rejectedQueueFull,
                  b.tenants[i].rejectedQueueFull);
        EXPECT_EQ(a.tenants[i].completed, b.tenants[i].completed);
        EXPECT_EQ(a.tenants[i].abandoned, b.tenants[i].abandoned);
    }
    EXPECT_EQ(a.endCycle, b.endCycle);
}

TEST_F(ServingFaultFixture, ArrivalParseFaultIsScopedToo)
{
    const std::string path = "/tmp/gqos_fault_arrivals_" +
                             std::to_string(::getpid()) + ".jsonl";
    ArrivalConfig cfg;
    cfg.ratePerKcycle = 0.5;
    cfg.horizon = 100000;
    cfg.numTenants = 3;
    cfg.seed = 2;
    ASSERT_TRUE(
        writeArrivalTrace(path, generateArrivals(cfg)).ok());

    auto &fi = FaultInjector::instance();
    fi.configure("arrival_parse:0.5");
    fi.reseed(23);
    fi.beginScope(1);
    std::uint64_t badA = 0;
    auto a = loadArrivalTrace(path, 3, &badA);
    fi.beginScope(3);
    auto interleaved = loadArrivalTrace(path, 3);
    (void)interleaved;
    fi.beginScope(1);
    std::uint64_t badB = 0;
    auto b = loadArrivalTrace(path, 3, &badB);
    fi.clear();
    std::filesystem::remove(path);

    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(badA, 0u);
    EXPECT_EQ(badA, badB);
    ASSERT_EQ(a.value().size(), b.value().size());
    for (std::size_t i = 0; i < a.value().size(); ++i) {
        EXPECT_EQ(a.value()[i].cycle, b.value()[i].cycle);
        EXPECT_EQ(a.value()[i].tenant, b.value()[i].tenant);
    }
}

TEST_F(FaultSweepFixture, QuotaAccountingFaultsStillConverge)
{
    auto &fi = FaultInjector::instance();
    opts.useCache = false;
    // Occasionally zero one SM's quota share; the feedback loop
    // (history-based alpha adjustment) must absorb it.
    fi.setRate("quota_account", 0.02);
    fi.reseed(3);
    Runner runner = Runner::make(opts).value();
    auto r = runner.run({"sgemm", "lbm"}, {0.5, 0.0}, "rollover");
    ASSERT_TRUE(r.ok());
    EXPECT_GT(fi.injected("quota_account"), 0u);
    fi.clear();
    // The run completed and the QoS kernel still made real
    // progress despite the sabotage.
    EXPECT_GT(r.value().kernels[0].normalizedToGoal(), 0.5);
}

} // anonymous namespace
} // namespace gqos
