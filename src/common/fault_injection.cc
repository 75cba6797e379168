/**
 * @file
 * Fault-injector implementation.
 *
 * The decision Rng lives in thread-local storage: every thread owns
 * an independent stream derived from the shared base seed, and
 * beginScope() rebases the calling thread's stream onto a stable
 * scope id (the sweep case index). Configuration and counters are
 * shared across threads under a mutex; the fast path for a disarmed
 * injector is one relaxed atomic load.
 */

#include "common/fault_injection.hh"

#include <cstdlib>

#include "common/cli.hh"
#include "common/logging.hh"

namespace gqos
{

namespace
{

/**
 * Per-thread decision stream. A fresh thread starts from the
 * default seed; reseed()/beginScope() replace the calling thread's
 * stream, so sweep workers always scope before drawing.
 */
thread_local Rng tFaultRng{1};

/** Domain tag decorrelating scope streams from plain reseeds. */
constexpr std::uint64_t scopeTag = 0xfa017'5c09eull;

} // anonymous namespace

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector *injector = [] {
        auto *fi = new FaultInjector();
        fi->reloadFromEnv();
        return fi;
    }();
    return *injector;
}

void
FaultInjector::reloadFromEnv()
{
    clear();
    if (const char *seed = std::getenv(seedEnvVar)) {
        Result<std::uint64_t> s = parseUnsigned(seed, seedEnvVar);
        if (s.ok())
            reseed(s.value());
        else
            gqos_warn("%s; using seed 1", s.error().message().c_str());
    }
    if (const char *spec = std::getenv(specEnvVar))
        configure(spec);
}

int
FaultInjector::configure(const std::string &spec)
{
    int accepted = 0;
    for (const std::string &entry : splitList(spec)) {
        if (entry.empty())
            continue;
        std::size_t colon = entry.find(':');
        bool bad = colon == std::string::npos || colon == 0;
        double prob = 0.0;
        if (!bad) {
            Result<double> p = parseFinite(entry.substr(colon + 1),
                                           "probability");
            prob = p.valueOr(0.0);
            bad = !p.ok() || prob < 0.0 || prob > 1.0;
        }
        if (bad) {
            gqos_warn("%s: skipping malformed entry '%s' "
                      "(want site:probability with probability in "
                      "[0,1])", specEnvVar, entry.c_str());
            continue;
        }
        setRate(entry.substr(0, colon), prob);
        accepted++;
    }
    return accepted;
}

void
FaultInjector::setRate(const std::string &site, double probability)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (probability <= 0.0) {
        sites_.erase(site);
    } else {
        sites_[site].probability = probability;
    }
    armed_.store(!sites_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    sites_.clear();
    armed_.store(false, std::memory_order_relaxed);
    baseSeed_ = 1;
    tFaultRng.reseed(1);
}

void
FaultInjector::reseed(std::uint64_t seed)
{
    std::lock_guard<std::mutex> guard(mutex_);
    baseSeed_ = seed;
    tFaultRng.reseed(seed);
}

void
FaultInjector::beginScope(std::uint64_t scopeId)
{
    std::uint64_t base;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        base = baseSeed_;
    }
    tFaultRng.reseed(mixSeed(base, scopeTag, scopeId));
}

bool
FaultInjector::shouldFail(const char *site)
{
    if (!enabled())
        return false;
    double probability;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        auto it = sites_.find(site);
        if (it == sites_.end())
            return false;
        it->second.checked++;
        probability = it->second.probability;
    }
    // The draw comes from the calling thread's own stream; no lock.
    if (!tFaultRng.chance(probability))
        return false;
    std::uint64_t count;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        count = ++sites_[site].injected;
    }
    gqos_debug("fault injected at site '%s' (#%llu)", site,
               static_cast<unsigned long long>(count));
    return true;
}

std::uint64_t
FaultInjector::checked(const std::string &site) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.checked;
}

std::uint64_t
FaultInjector::injected(const std::string &site) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.injected;
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::uint64_t n = 0;
    for (const auto &[name, site] : sites_)
        n += site.injected;
    return n;
}

} // namespace gqos
