/**
 * @file
 * Trace-record dispatch, the sink decorators and the JSONL backend.
 */

#include "telemetry/trace.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/metrics.hh"

namespace gqos
{

namespace
{

/** Open a JSONL object with the fields every record kind shares. */
void
beginJsonl(std::ostringstream &os, const char *type,
           const std::string &case_key)
{
    os << "{\"type\":\"" << type << "\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(case_key) << "\"";
}

std::string
toJsonl(const EpochKernelRecord &r)
{
    std::ostringstream os;
    beginJsonl(os, "epoch_kernel", r.caseKey);
    os << ",\"epoch\":" << r.epoch
       << ",\"start\":" << r.start
       << ",\"length\":" << r.length
       << ",\"final_partial\":" << (r.finalPartial ? "true" : "false")
       << ",\"kernel\":" << r.kernel
       << ",\"is_qos\":" << (r.isQos ? "true" : "false")
       << ",\"goal_ipc\":" << jsonNumber(r.goalIpc)
       << ",\"non_qos_goal\":" << jsonNumber(r.nonQosGoal)
       << ",\"alpha\":" << jsonNumber(r.alpha)
       << ",\"ipc_epoch\":" << jsonNumber(r.ipcEpoch)
       << ",\"ipc_history\":" << jsonNumber(r.ipcHistory)
       << ",\"attainment\":" << jsonNumber(r.attainment)
       << ",\"quota_granted\":" << jsonNumber(r.quotaGranted)
       << ",\"instr_delta\":" << r.instrDelta
       << ",\"completed_tbs\":" << r.completedTbs
       << ",\"preempted_tbs\":" << r.preemptedTbs
       << ",\"quota_refills\":" << r.quotaRefills
       << ",\"tb_target\":" << r.tbTarget
       << ",\"tb_resident\":" << r.tbResident
       << ",\"iw_average\":" << jsonNumber(r.iwAverage)
       << ",\"gated_fraction\":" << jsonNumber(r.gatedFraction)
       << ",\"leftover_per_sm\":[";
    for (std::size_t i = 0; i < r.leftoverPerSm.size(); ++i)
        os << (i ? "," : "") << jsonNumber(r.leftoverPerSm[i]);
    os << "]}";
    return os.str();
}

std::string
toJsonl(const EpochMemRecord &r)
{
    std::ostringstream os;
    beginJsonl(os, "epoch_mem", r.caseKey);
    os << ",\"epoch\":" << r.epoch
       << ",\"start\":" << r.start
       << ",\"length\":" << r.length
       << ",\"final_partial\":" << (r.finalPartial ? "true" : "false")
       << ",\"l1_accesses\":" << r.l1Accesses
       << ",\"l1_misses\":" << r.l1Misses
       << ",\"l2_accesses\":" << r.l2Accesses
       << ",\"l2_misses\":" << r.l2Misses
       << ",\"dram_accesses\":" << r.dramAccesses
       << ",\"context_lines\":" << r.contextLines << "}";
    return os.str();
}

std::string
toJsonl(const AllocEventRecord &r)
{
    std::ostringstream os;
    beginJsonl(os, "alloc_event", r.caseKey);
    os << ",\"epoch\":" << r.epoch
       << ",\"cycle\":" << r.cycle
       << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"delta\":" << r.delta
       << ",\"reason\":\"" << jsonEscape(r.reason) << "\""
       << ",\"iw_average\":" << jsonNumber(r.iwAverage) << "}";
    return os.str();
}

std::string
toJsonl(const ServingEventRecord &r)
{
    std::ostringstream os;
    beginJsonl(os, "serving_event", r.caseKey);
    os << ",\"cycle\":" << r.cycle
       << ",\"event\":\"" << jsonEscape(r.event) << "\""
       << ",\"tenant\":\"" << jsonEscape(r.tenant) << "\""
       << ",\"request\":" << r.request
       << ",\"latency\":" << r.latency
       << ",\"level\":" << r.level
       << ",\"queue_depth\":" << r.queueDepth
       << ",\"detail\":\"" << jsonEscape(r.detail) << "\"}";
    return os.str();
}

std::string
toJsonl(const SmSliceRecord &r)
{
    std::ostringstream os;
    beginJsonl(os, "sm_slice", r.caseKey);
    os << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"start\":" << r.start
       << ",\"end\":" << r.end << "}";
    return os.str();
}

} // anonymous namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
emit(TraceSink &sink, const TraceRecord &rec)
{
    struct Dispatch
    {
        TraceSink &sink;
        void operator()(const EpochKernelRecord &r) { sink.onEpochKernel(r); }
        void operator()(const EpochMemRecord &r) { sink.onEpochMem(r); }
        void operator()(const AllocEventRecord &r) { sink.onAllocEvent(r); }
        void
        operator()(const ServingEventRecord &r)
        {
            sink.onServingEvent(r);
        }
        void operator()(const SmSliceRecord &r) { sink.onSmSlice(r); }
    };
    std::visit(Dispatch{sink}, rec);
}

void
CaseLabelingSink::onRecord(const TraceRecord &rec)
{
    TraceRecord labeled = rec;
    std::visit([this](auto &r) { r.caseKey = caseKey_; }, labeled);
    emit(*inner_, labeled);
}

Result<std::unique_ptr<JsonlTraceSink>>
JsonlTraceSink::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        return Error(ErrorCode::IoError,
                     "cannot open trace file '" + path +
                         "': " + std::strerror(errno));
    }
    return std::unique_ptr<JsonlTraceSink>(new JsonlTraceSink(f));
}

JsonlTraceSink::~JsonlTraceSink()
{
    std::fclose(file_);
}

void
JsonlTraceSink::onRecord(const TraceRecord &rec)
{
    const std::string line =
        std::visit([](const auto &r) { return toJsonl(r); }, rec);
    // Keep fwrite + fputc: appending '\n' to line and writing it
    // with one fwrite made epoch_kernel records several times slower
    // inside a simulating process.
    std::lock_guard<std::mutex> guard(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
}

void
JsonlTraceSink::flush()
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::fflush(file_);
}

namespace
{

/**
 * Does the text after the last comma of a spec look like an intended
 * format token? Anything short without path characters ('.', '/')
 * counts, so "trace.jsonl,yaml" is rejected as an unknown format
 * instead of silently becoming a file named "trace.jsonl,yaml",
 * while commas inside genuine file names stay usable.
 */
bool
looksLikeFormatToken(const std::string &tail)
{
    return !tail.empty() && tail.size() <= 8 &&
           tail.find('.') == std::string::npos &&
           tail.find('/') == std::string::npos;
}

} // anonymous namespace

std::string
traceSpecPath(const std::string &spec)
{
    auto comma = spec.rfind(',');
    if (comma == std::string::npos)
        return spec;
    if (looksLikeFormatToken(spec.substr(comma + 1)))
        return spec.substr(0, comma);
    return spec; // trailing part is not a format; keep whole spec
}

Result<std::unique_ptr<TraceSink>>
openTraceSink(const std::string &spec)
{
    const std::string path = traceSpecPath(spec);
    if (path.size() < spec.size()) {
        const std::string format = spec.substr(path.size() + 1);
        if (format != "jsonl") {
            return Error(ErrorCode::InvalidArgument,
                         "unknown trace format '" + format +
                             "' in spec '" + spec + "' (want jsonl)");
        }
    }
    if (path.empty()) {
        return Error(ErrorCode::InvalidArgument,
                     "empty trace file path in spec '" + spec + "'");
    }
    auto sink = JsonlTraceSink::open(path);
    if (!sink.ok())
        return sink.error();
    return std::unique_ptr<TraceSink>(std::move(sink.value()));
}

} // namespace gqos
