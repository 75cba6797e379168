/**
 * @file
 * Timeline exporter implementation.
 *
 * Trace-event reference: every event carries ph (phase), pid, tid,
 * ts (microseconds) and name. "X" = complete slice (dur), "C" =
 * counter sample (args are the series), "i" = instant ("s":"p"
 * scopes it to the process lane), "M" = metadata (process/thread
 * names).
 */

#include "telemetry/timeline.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/metrics.hh"

namespace gqos
{

namespace
{

/** tid of the per-SM occupancy track. */
int
smTid(int sm)
{
    return 1000 + sm;
}

/** tid 0 is the per-case control track (counters + instants). */
constexpr int controlTid = 0;

} // anonymous namespace

Result<std::unique_ptr<TimelineSink>>
TimelineSink::open(const std::string &path)
{
    // Fail at CLI-parse time, not at the end of a long run: write
    // an (empty but valid) document right away.
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        return Error(ErrorCode::IoError,
                     "cannot open timeline file '" + path +
                         "': " + std::strerror(errno));
    }
    std::fclose(f);
    auto sink =
        std::unique_ptr<TimelineSink>(new TimelineSink(path));
    sink->flush();
    return sink;
}

TimelineSink::~TimelineSink()
{
    flush();
}

void
TimelineSink::push(const std::string &case_key, std::string fragment)
{
    std::lock_guard<std::mutex> guard(mutex_);
    events_.push_back({case_key, std::move(fragment)});
}

void
TimelineSink::nameThread(const std::string &case_key, int tid,
                         const std::string &name)
{
    std::lock_guard<std::mutex> guard(mutex_);
    threads_[case_key][tid] = name;
}

void
TimelineSink::onRecord(const TraceRecord &rec)
{
    std::visit([this](const auto &r) { render(r); }, rec);
}

void
TimelineSink::render(const EpochKernelRecord &rec)
{
    Cycle ts = rec.start + rec.length;
    std::ostringstream os;
    os << "\"ph\":\"C\",\"tid\":" << controlTid << ",\"ts\":" << ts
       << ",\"name\":\"K" << rec.kernel << " epoch\",\"args\":{"
       << "\"ipc_epoch\":" << jsonNumber(rec.ipcEpoch)
       << ",\"attainment\":" << jsonNumber(rec.attainment)
       << ",\"quota_granted\":" << jsonNumber(rec.quotaGranted)
       << ",\"gated_fraction\":" << jsonNumber(rec.gatedFraction)
       << "}";
    push(rec.caseKey, os.str());

    if (rec.kernel == 0) {
        // One epoch-boundary instant per epoch, not per kernel.
        std::ostringstream eb;
        eb << "\"ph\":\"i\",\"tid\":" << controlTid
           << ",\"ts\":" << ts << ",\"s\":\"p\",\"name\":\"epoch "
           << rec.epoch << (rec.finalPartial ? " (partial)" : "")
           << "\"";
        push(rec.caseKey, eb.str());
    }
    if (rec.quotaRefills > 0) {
        std::ostringstream qr;
        qr << "\"ph\":\"i\",\"tid\":" << controlTid
           << ",\"ts\":" << ts
           << ",\"s\":\"p\",\"name\":\"quota_refill K" << rec.kernel
           << "\",\"args\":{\"refills\":" << rec.quotaRefills
           << "}";
        push(rec.caseKey, qr.str());
    }
}

void
TimelineSink::render(const EpochMemRecord &rec)
{
    std::ostringstream os;
    os << "\"ph\":\"C\",\"tid\":" << controlTid
       << ",\"ts\":" << rec.start + rec.length
       << ",\"name\":\"memory\",\"args\":{"
       << "\"dram_accesses\":" << rec.dramAccesses
       << ",\"l2_misses\":" << rec.l2Misses << "}";
    push(rec.caseKey, os.str());
}

void
TimelineSink::render(const AllocEventRecord &rec)
{
    std::ostringstream os;
    os << "\"ph\":\"i\",\"tid\":" << controlTid
       << ",\"ts\":" << rec.cycle
       << ",\"s\":\"p\",\"name\":\"alloc " << jsonEscape(rec.reason)
       << "\",\"args\":{\"sm\":" << rec.sm
       << ",\"kernel\":" << rec.kernel << ",\"delta\":" << rec.delta
       << "}";
    push(rec.caseKey, os.str());
}

void
TimelineSink::render(const ServingEventRecord &rec)
{
    std::ostringstream os;
    os << "\"ph\":\"i\",\"tid\":" << controlTid
       << ",\"ts\":" << rec.cycle << ",\"s\":\"p\",\"name\":\""
       << jsonEscape(rec.event) << "\",\"args\":{\"tenant\":\""
       << jsonEscape(rec.tenant) << "\",\"request\":" << rec.request
       << ",\"latency\":" << rec.latency
       << ",\"level\":" << rec.level << ",\"detail\":\""
       << jsonEscape(rec.detail) << "\"}";
    push(rec.caseKey, os.str());

    // Queue-depth counter per tenant; server-wide events carry the
    // total backlog instead.
    std::ostringstream qd;
    qd << "\"ph\":\"C\",\"tid\":" << controlTid
       << ",\"ts\":" << rec.cycle << ",\"name\":\"queue ";
    if (rec.tenant.empty())
        qd << "(total)";
    else
        qd << jsonEscape(rec.tenant);
    qd << "\",\"args\":{\"depth\":" << rec.queueDepth << "}";
    push(rec.caseKey, qd.str());

    std::ostringstream lv;
    lv << "\"ph\":\"C\",\"tid\":" << controlTid
       << ",\"ts\":" << rec.cycle
       << ",\"name\":\"admission level\",\"args\":{\"level\":"
       << rec.level << "}";
    push(rec.caseKey, lv.str());
}

void
TimelineSink::render(const SmSliceRecord &rec)
{
    std::ostringstream os;
    os << "\"ph\":\"X\",\"tid\":" << smTid(rec.sm)
       << ",\"ts\":" << rec.start
       << ",\"dur\":" << rec.end - rec.start << ",\"name\":\"K"
       << rec.kernel << "\"";
    push(rec.caseKey, os.str());
    std::ostringstream name;
    name << "SM " << rec.sm;
    nameThread(rec.caseKey, smTid(rec.sm), name.str());
}

void
TimelineSink::flush()
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f)
        return; // keep the previous flush's document
    // Group events by case, keys sorted, arrival order preserved
    // within a case (each case is simulated single-threaded, so
    // arrival order is deterministic regardless of --jobs).
    std::map<std::string, std::vector<const Ev *>> byCase;
    for (const Ev &e : events_)
        byCase[e.caseKey].push_back(&e);
    for (const auto &kv : threads_)
        byCase[kv.first]; // cases with only thread names still show

    std::fputs("{\"schema_version\":", f);
    std::fprintf(f, "%d", traceSchemaVersion);
    std::fputs(",\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    int pid = 0;
    auto emit = [&](const std::string &body) {
        if (!first)
            std::fputc(',', f);
        first = false;
        std::fprintf(f, "\n{\"pid\":%d,%s}", pid, body.c_str());
    };
    for (const auto &kv : byCase) {
        pid++;
        const std::string label =
            kv.first.empty() ? "run" : jsonEscape(kv.first);
        emit("\"ph\":\"M\",\"tid\":0,\"name\":\"process_name\","
             "\"args\":{\"name\":\"" + label + "\"}");
        auto t = threads_.find(kv.first);
        if (t != threads_.end()) {
            for (const auto &tn : t->second) {
                std::ostringstream os;
                os << "\"ph\":\"M\",\"tid\":" << tn.first
                   << ",\"name\":\"thread_name\",\"args\":{"
                   << "\"name\":\"" << jsonEscape(tn.second)
                   << "\"}";
                emit(os.str());
            }
        }
        for (const Ev *e : kv.second)
            emit(e->fragment);
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

} // namespace gqos
