/**
 * @file
 * Measurement primitives of the repository benchmark.
 */

#include "measure.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace
{

/**
 * Host-speed probe sizes: a 256 KiB chase table and a 256 KiB tag
 * array (8-way, 4096 sets) both stay in a private L2, as the
 * simulator's hot state does; steps of each part per slice.
 */
constexpr std::size_t probeEntries = std::size_t{1} << 16;
constexpr std::size_t probeSets = 4096;
constexpr std::size_t probeWays = 8;
constexpr int probeChaseSteps = 100000;
constexpr int probeTagLookups = 60000;

/**
 * 1-based nearest rank of percentile @p pct among @p n samples, in
 * integer arithmetic (ceil(0.56 * 25) is 15 in floating point).
 */
std::size_t
nearestRank(std::size_t n, int pct)
{
    const std::size_t rank =
        (static_cast<std::size_t>(pct) * n + 99) / 100;
    return std::clamp<std::size_t>(rank, 1, n);
}

} // anonymous namespace

double
percentile(std::vector<double> samples, int pct)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), pct) - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

HostProbe::HostProbe()
    : next_(probeEntries), tags_(probeSets * probeWays)
{
    // Sattolo's shuffle: one cycle through every entry, so the chase
    // visits the whole table instead of settling into a short loop.
    for (std::size_t i = 0; i < probeEntries; ++i)
        next_[i] = static_cast<std::uint32_t>(i);
    std::uint64_t s = 0x243f6a8885a308d3ull;
    for (std::size_t i = probeEntries - 1; i > 0; --i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(next_[i], next_[(s >> 33) % i]);
    }
}

double
HostProbe::slice()
{
    const Clock::time_point t0 = Clock::now();
    // A dependent chase with a data-dependent branch per step.
    std::uint32_t at = at_;
    std::uint64_t h = state_;
    for (int i = 0; i < probeChaseSteps; ++i) {
        at = next_[at];
        h = (h ^ at) * 0x9e3779b97f4a7c15ull;
        if ((h >> 61) & 1)
            h += h >> 29;
        else
            h ^= h << 7;
    }
    // An LRU set-associative tag lookup per step over a stream that
    // mixes reuse and misses, like a cache model's.
    std::uint64_t x = h, y = h ^ 0x5555, hits = 0;
    for (int i = 0; i < probeTagLookups; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        y = y * 2862933555777941757ull + 3037000493ull;
        const std::uint64_t addr =
            ((x >> 40) & 0x3ffff) ^ (((y >> 50) & 1) ? 0 : (x >> 20) & 0xfff);
        std::uint64_t *set = &tags_[(addr % probeSets) * probeWays];
        const std::uint64_t tag = addr / probeSets;
        std::size_t w = 0;
        while (w < probeWays && set[w] != tag)
            ++w;
        hits += w < probeWays;
        for (w = std::min(w, probeWays - 1); w > 0; --w)
            set[w] = set[w - 1];
        set[0] = tag;
    }
    at_ = at;
    state_ = (h ^ hits) | 1;
    return secondsSince(t0);
}

void
HostProbe::sample(int n, std::vector<double> &out)
{
    for (int i = 0; i < n; ++i)
        out.push_back(slice());
}

TailPercentile
tailPercentile(std::vector<double> samples, int max_pct,
               std::size_t min_beyond)
{
    TailPercentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    out.pct = 50;
    for (int pct = max_pct; pct > 50; --pct) {
        if (n - nearestRank(n, pct) >= min_beyond) {
            out.pct = pct;
            break;
        }
    }
    const std::size_t rank = nearestRank(n, out.pct);
    out.value = samples[rank - 1];
    out.beyond = n - rank;
    return out;
}

std::string
Ratio::describe() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6g (%.6g/%.6g)", value(), num,
                  base);
    return buf;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{}

SpanRecorder::Scope::Scope(Scope &&other) noexcept
    : rec_(other.rec_), index_(other.index_)
{
    other.rec_ = nullptr;
}

SpanRecorder::Scope::~Scope()
{
    if (rec_)
        rec_->close(index_);
}

SpanRecorder::Scope
SpanRecorder::open(const char *layer, std::string name,
                   std::uint64_t case_id)
{
    if (!enabled_)
        return Scope(nullptr, -1);
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = openStack_.empty() ? -1 : openStack_.back();
    s.caseId = case_id;
    s.layer = layer;
    s.name = std::move(name);
    s.start = secondsSince(origin_);
    spans_.push_back(std::move(s));
    openStack_.push_back(spans_.back().id);
    return Scope(this, spans_.back().id);
}

void
SpanRecorder::close(int index)
{
    spans_[index].end = secondsSince(origin_);
    // Scopes nest lexically, so the closing span is the innermost.
    if (!openStack_.empty() && openStack_.back() == index)
        openStack_.pop_back();
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

std::vector<std::pair<std::string, double>>
SpanRecorder::selfSecondsByLayer() const
{
    std::vector<double> childCovered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childCovered[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> byLayer;
    for (const Span &s : spans_) {
        byLayer[s.layer] +=
            std::max(0.0, s.end - s.start - childCovered[s.id]);
    }
    return {byLayer.begin(), byLayer.end()};
}

gqos::Result<void>
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        return gqos::Error::format(gqos::ErrorCode::IoError,
                                   "cannot write spans to '%s'",
                                   path.c_str());
    }
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "{\"id\":%d,\"parent\":%d,\"case\":%llu,"
                      "\"start_s\":%.9f,\"end_s\":%.9f,",
                      s.id, s.parent,
                      static_cast<unsigned long long>(s.caseId),
                      s.start, s.end);
        os << (i ? ",\n" : "\n") << buf << "\"layer\":\""
           << gqos::jsonEscape(s.layer) << "\",\"name\":\""
           << gqos::jsonEscape(s.name) << "\"}";
    }
    os << "\n],\"self_s_by_layer\":{";
    bool first = true;
    for (const auto &[layer, secs] : selfSecondsByLayer()) {
        os << (first ? "" : ",") << "\"" << gqos::jsonEscape(layer)
           << "\":" << secs;
        first = false;
    }
    os << "}}\n";
    if (!os) {
        return gqos::Error::format(gqos::ErrorCode::IoError,
                                   "short write to '%s'", path.c_str());
    }
    return {};
}

template <typename Fn>
void
TimingTraceSink::timed(Fn &&fn, bool is_record)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count()),
                  std::memory_order_relaxed);
    if (is_record)
        records_.fetch_add(1, std::memory_order_relaxed);
}

void
TimingTraceSink::onEpochKernel(const gqos::EpochKernelRecord &rec)
{
    timed([&] { inner_->onEpochKernel(rec); }, true);
}

void
TimingTraceSink::onEpochMem(const gqos::EpochMemRecord &rec)
{
    timed([&] { inner_->onEpochMem(rec); }, true);
}

void
TimingTraceSink::onAllocEvent(const gqos::AllocEventRecord &rec)
{
    timed([&] { inner_->onAllocEvent(rec); }, true);
}

void
TimingTraceSink::onServingEvent(const gqos::ServingEventRecord &rec)
{
    timed([&] { inner_->onServingEvent(rec); }, true);
}

void
TimingTraceSink::onSmSlice(const gqos::SmSliceRecord &rec)
{
    timed([&] { inner_->onSmSlice(rec); }, true);
}

void
TimingTraceSink::flush()
{
    timed([&] { inner_->flush(); }, false);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostFingerprintJson()
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\":%ld,\"compiler\":\"%s\","
                  "\"build_type\":\"%s\",\"loadavg\":[%.2f,%.2f,%.2f]}",
                  sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                  PERFBENCH_BUILD_TYPE, load[0], load[1], load[2]);
    return buf;
}

} // namespace perfbench
