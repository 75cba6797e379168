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
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> guard(mutex_);
    samples_[name].add(value);
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
    os << "}}";
}

} // namespace gqos
