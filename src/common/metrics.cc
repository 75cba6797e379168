/**
 * @file
 * Metrics-registry implementation.
 */

#include "common/metrics.hh"

#include <cstdio>

namespace gqos
{

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (const char *p = buf; *p; ++p) {
        if (*p == 'n' || *p == 'i')
            return "null";
    }
    return buf;
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(name, std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

void
MetricsRegistry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> guard(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> guard(mutex_);
    samples_[name].add(value);
}

void
MetricsRegistry::observeHistogram(const std::string &name,
                                  double value,
                                  const std::vector<double> &bounds)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, Histogram(bounds)).first;
    it->second.add(value);
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return counters_.size() + gauges_.size() + samples_.size() +
           histograms_.size();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    os << "{";

    os << "\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        os << (first ? "" : ",") << "\"" << name
           << "\":" << c->value();
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges_) {
        os << (first ? "" : ",") << "\"" << name
           << "\":" << jsonNumber(v);
        first = false;
    }
    os << "},\"samples\":{";
    first = true;
    for (const auto &[name, s] : samples_) {
        os << (first ? "" : ",") << "\"" << name << "\":{"
           << "\"count\":" << s.count()
           << ",\"mean\":" << jsonNumber(s.mean())
           << ",\"min\":" << jsonNumber(s.min())
           << ",\"max\":" << jsonNumber(s.max())
           << ",\"variance\":" << jsonNumber(s.variance()) << "}";
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << "\"" << name << "\":{"
           << "\"total\":" << h.total() << ",\"buckets\":[";
        for (std::size_t b = 0; b < h.numBuckets(); ++b) {
            os << (b ? "," : "") << "{\"le\":"
               << jsonNumber(h.bucketBound(b))
               << ",\"count\":" << h.bucketCount(b) << "}";
        }
        os << "]}";
        first = false;
    }
    os << "}}";
}

} // namespace gqos
