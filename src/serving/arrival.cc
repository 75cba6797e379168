/**
 * @file
 * Arrival-process generators and trace-file round-tripping.
 */

#include "serving/arrival.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <tuple>

#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace gqos
{

const char *
toString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

Result<ArrivalKind>
parseArrivalKind(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "bursty" || name == "mmpp")
        return ArrivalKind::Bursty;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    return Error::format(ErrorCode::InvalidArgument,
                         "unknown arrival kind '%s' (want poisson, "
                         "bursty or diurnal)",
                         name.c_str());
}

Result<void>
ArrivalConfig::check() const
{
    if (!(ratePerKcycle > 0.0)) {
        return Error::format(ErrorCode::InvalidArgument,
                             "arrival rate %g must be > 0",
                             ratePerKcycle);
    }
    if (horizon == 0) {
        return Error(ErrorCode::InvalidArgument,
                     "arrival horizon must be > 0");
    }
    if (numTenants < 1 || numTenants > maxKernels) {
        return Error::format(ErrorCode::InvalidArgument,
                             "tenant count %d out of [1, %d]",
                             numTenants, maxKernels);
    }
    return {};
}

namespace
{

// ---- bursty (MMPP-2) ----

/** Burst-phase rate multiplier (> 1). */
constexpr double burstFactor = 4.0;

/** Long-run fraction of time spent in the burst phase. */
constexpr double burstFraction = 0.2;

/** Mean calm+burst phase-pair period, cycles. */
constexpr Cycle phaseMean = 16000;

static_assert(burstFactor > 1.0 && burstFraction > 0.0 &&
                  burstFactor * burstFraction < 1.0,
              "the calm-phase rate must stay positive");

// ---- diurnal ----

/** Sinusoid period, cycles (one compressed "day"). */
constexpr Cycle period = 100000;

/** Peak-to-mean modulation depth in [0, 1). */
constexpr double depth = 0.8;

static_assert(depth >= 0.0 && depth < 1.0,
              "the diurnal rate must stay positive");

/** Exponential draw with mean @p mean (cycles, as double). */
double
expDraw(Rng &rng, double mean)
{
    // 1 - uniform() is in (0, 1], so the log argument never hits 0.
    return -mean * std::log(1.0 - rng.uniform());
}

/** One tenant's Poisson stream over [0, horizon). */
void
genPoisson(Rng &rng, double rate_per_kcycle, Cycle horizon,
           std::vector<Cycle> *out)
{
    const double mean = 1000.0 / rate_per_kcycle;
    double t = expDraw(rng, mean);
    while (t < static_cast<double>(horizon)) {
        out->push_back(static_cast<Cycle>(t));
        t += expDraw(rng, mean);
    }
}

/**
 * Two-state MMPP: calm and burst phases with exponential dwell
 * times. The time-weighted mean rate equals rate_per_kcycle exactly:
 * burstFraction * rateBurst + (1 - burstFraction) * rateCalm = rate.
 * Redrawing the pending interarrival at each phase switch is exact
 * by memorylessness of the exponential.
 */
void
genBursty(Rng &rng, const ArrivalConfig &cfg,
          std::vector<Cycle> *out)
{
    const double rate = cfg.ratePerKcycle;
    const double rateBurst = rate * burstFactor;
    const double rateCalm = rate * (1.0 - burstFactor * burstFraction) /
        (1.0 - burstFraction);
    const double calmDwell =
        static_cast<double>(phaseMean) * (1.0 - burstFraction);
    const double burstDwell =
        static_cast<double>(phaseMean) * burstFraction;

    bool inBurst = false;
    double t = 0.0;
    double phaseEnd = expDraw(rng, calmDwell);
    const double horizon = static_cast<double>(cfg.horizon);
    while (t < horizon) {
        const double r = inBurst ? rateBurst : rateCalm;
        double next = r > 0.0 ? t + expDraw(rng, 1000.0 / r)
                              : phaseEnd;
        if (next >= phaseEnd) {
            t = phaseEnd;
            inBurst = !inBurst;
            phaseEnd =
                t + expDraw(rng, inBurst ? burstDwell : calmDwell);
            continue;
        }
        t = next;
        if (t < horizon)
            out->push_back(static_cast<Cycle>(t));
    }
}

/**
 * Sinusoidally modulated Poisson via thinning: generate at the peak
 * rate, accept with probability lambda(t) / peak. Time-averaged
 * rate is exactly rate_per_kcycle.
 */
void
genDiurnal(Rng &rng, const ArrivalConfig &cfg,
           std::vector<Cycle> *out)
{
    const double rate = cfg.ratePerKcycle;
    const double peak = rate * (1.0 + depth);
    const double mean = 1000.0 / peak;
    const double twoPi = 6.283185307179586;
    const double horizon = static_cast<double>(cfg.horizon);
    double t = expDraw(rng, mean);
    while (t < horizon) {
        const double lambda =
            rate * (1.0 + depth * std::sin(twoPi * t /
                                           static_cast<double>(period)));
        if (rng.uniform() < lambda / peak)
            out->push_back(static_cast<Cycle>(t));
        t += expDraw(rng, mean);
    }
}

/** Trace order, generated or loaded: (cycle, tenant, seq). */
bool
arrivesBefore(const Arrival &a, const Arrival &b)
{
    return std::tie(a.cycle, a.tenant, a.seq) <
           std::tie(b.cycle, b.tenant, b.seq);
}

/** @p token as a strict base-10 unsigned of at most @p max. */
bool
readUnsigned(const char *token, std::uint64_t *out,
             std::uint64_t max = ~std::uint64_t{0})
{
    Result<std::uint64_t> v = parseUnsigned(token, "arrival field", max);
    if (v.ok())
        *out = v.value();
    return v.ok();
}

} // anonymous namespace

std::vector<Arrival>
generateArrivals(const ArrivalConfig &cfg)
{
    okOrDie(cfg.check());
    std::vector<Arrival> merged;
    for (int tenant = 0; tenant < cfg.numTenants; ++tenant) {
        Rng rng(mixSeed(cfg.seed, static_cast<std::uint64_t>(tenant),
                        static_cast<std::uint64_t>(cfg.kind) + 101));
        std::vector<Cycle> times;
        switch (cfg.kind) {
          case ArrivalKind::Poisson:
            genPoisson(rng, cfg.ratePerKcycle, cfg.horizon, &times);
            break;
          case ArrivalKind::Bursty:
            genBursty(rng, cfg, &times);
            break;
          case ArrivalKind::Diurnal:
            genDiurnal(rng, cfg, &times);
            break;
        }
        std::uint64_t seq = 0;
        for (Cycle c : times)
            merged.push_back({c, tenant, seq++});
    }
    std::sort(merged.begin(), merged.end(), arrivesBefore);
    return merged;
}

Result<void>
writeArrivalTrace(const std::string &path,
                  const std::vector<Arrival> &arrivals)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        return Error(ErrorCode::IoError,
                     "cannot open arrival trace '" + path +
                         "' for writing: " + std::strerror(errno));
    }
    for (const Arrival &a : arrivals) {
        std::fprintf(f, "{\"cycle\":%llu,\"tenant\":%d,\"seq\":%llu}\n",
                     static_cast<unsigned long long>(a.cycle),
                     a.tenant,
                     static_cast<unsigned long long>(a.seq));
    }
    if (std::fclose(f) != 0) {
        return Error(ErrorCode::IoError,
                     "close failed on arrival trace '" + path + "'");
    }
    return {};
}

Result<std::vector<Arrival>>
loadArrivalTrace(const std::string &path, int numTenants,
                 std::uint64_t *malformed)
{
    std::ifstream in(path);
    if (!in) {
        return Error(ErrorCode::IoError,
                     "cannot open arrival trace '" + path + "'");
    }
    std::vector<Arrival> out;
    std::uint64_t bad = 0;
    std::uint64_t lineNo = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        // Each field is one strict unsigned token: "-5", "+5" or
        // "1e3" is malformed, not a wrapped or truncated number.
        char cycle[32], tenant[32], seq[32];
        std::uint64_t c = 0, t = 0, q = 0;
        const bool parsed =
            !faultAt("arrival_parse") &&
            std::sscanf(line.c_str(),
                        " { \"cycle\" : %31[^ \t,] , "
                        "\"tenant\" : %31[^ \t,] , "
                        "\"seq\" : %31[^ \t}]",
                        cycle, tenant, seq) == 3 &&
            readUnsigned(cycle, &c) &&
            readUnsigned(tenant, &t, std::numeric_limits<int>::max()) &&
            static_cast<int>(t) < numTenants && readUnsigned(seq, &q);
        if (!parsed) {
            ++bad;
            if (bad <= 5) {
                gqos_warn("arrival trace %s:%llu: skipping "
                          "malformed line",
                          path.c_str(),
                          static_cast<unsigned long long>(lineNo));
            }
            continue;
        }
        out.push_back({c, static_cast<int>(t), q});
    }
    if (malformed)
        *malformed = bad;
    std::sort(out.begin(), out.end(), arrivesBefore);
    return out;
}

} // namespace gqos
