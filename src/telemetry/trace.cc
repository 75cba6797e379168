/**
 * @file
 * Trace-sink backend: JSONL.
 */

#include "telemetry/trace.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

namespace gqos
{

namespace
{

/** JSON-safe number (see metrics.cc): null for non-finite. */
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

std::string
jsonlEpochKernel(const EpochKernelRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"epoch_kernel\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
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
jsonlEpochMem(const EpochMemRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"epoch_mem\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
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
jsonlAllocEvent(const AllocEventRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"alloc_event\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"epoch\":" << r.epoch
       << ",\"cycle\":" << r.cycle
       << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"delta\":" << r.delta
       << ",\"reason\":\"" << jsonEscape(r.reason) << "\""
       << ",\"iw_average\":" << jsonNumber(r.iwAverage) << "}";
    return os.str();
}

std::string
jsonlServingEvent(const ServingEventRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"serving_event\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"cycle\":" << r.cycle
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
jsonlSmSlice(const SmSliceRecord &r)
{
    std::ostringstream os;
    os << "{\"type\":\"sm_slice\""
       << ",\"schema_version\":" << traceSchemaVersion
       << ",\"case\":\"" << jsonEscape(r.caseKey) << "\""
       << ",\"sm\":" << r.sm
       << ",\"kernel\":" << r.kernel
       << ",\"start\":" << r.start
       << ",\"end\":" << r.end << "}";
    return os.str();
}

Result<std::FILE *>
openFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        return Error(ErrorCode::IoError,
                     "cannot open trace file '" + path +
                         "': " + std::strerror(errno));
    }
    return f;
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
CaseLabelingSink::onEpochKernel(const EpochKernelRecord &rec)
{
    EpochKernelRecord labeled = rec;
    labeled.caseKey = caseKey_;
    inner_->onEpochKernel(labeled);
}

void
CaseLabelingSink::onEpochMem(const EpochMemRecord &rec)
{
    EpochMemRecord labeled = rec;
    labeled.caseKey = caseKey_;
    inner_->onEpochMem(labeled);
}

void
CaseLabelingSink::onAllocEvent(const AllocEventRecord &rec)
{
    AllocEventRecord labeled = rec;
    labeled.caseKey = caseKey_;
    inner_->onAllocEvent(labeled);
}

void
CaseLabelingSink::onServingEvent(const ServingEventRecord &rec)
{
    ServingEventRecord labeled = rec;
    labeled.caseKey = caseKey_;
    inner_->onServingEvent(labeled);
}

void
CaseLabelingSink::onSmSlice(const SmSliceRecord &rec)
{
    SmSliceRecord labeled = rec;
    labeled.caseKey = caseKey_;
    inner_->onSmSlice(labeled);
}

void
TeeTraceSink::onEpochKernel(const EpochKernelRecord &rec)
{
    a_->onEpochKernel(rec);
    b_->onEpochKernel(rec);
}

void
TeeTraceSink::onEpochMem(const EpochMemRecord &rec)
{
    a_->onEpochMem(rec);
    b_->onEpochMem(rec);
}

void
TeeTraceSink::onAllocEvent(const AllocEventRecord &rec)
{
    a_->onAllocEvent(rec);
    b_->onAllocEvent(rec);
}

void
TeeTraceSink::onServingEvent(const ServingEventRecord &rec)
{
    a_->onServingEvent(rec);
    b_->onServingEvent(rec);
}

void
TeeTraceSink::onSmSlice(const SmSliceRecord &rec)
{
    a_->onSmSlice(rec);
    b_->onSmSlice(rec);
}

void
TeeTraceSink::flush()
{
    a_->flush();
    b_->flush();
}

void
BufferingTraceSink::onEpochKernel(const EpochKernelRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Entry e;
    e.kind = Entry::Kind::EpochKernel;
    e.epochKernel = rec;
    records_.push_back(std::move(e));
}

void
BufferingTraceSink::onEpochMem(const EpochMemRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Entry e;
    e.kind = Entry::Kind::EpochMem;
    e.epochMem = rec;
    records_.push_back(std::move(e));
}

void
BufferingTraceSink::onAllocEvent(const AllocEventRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Entry e;
    e.kind = Entry::Kind::AllocEvent;
    e.allocEvent = rec;
    records_.push_back(std::move(e));
}

void
BufferingTraceSink::onServingEvent(const ServingEventRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Entry e;
    e.kind = Entry::Kind::Serving;
    e.serving = rec;
    records_.push_back(std::move(e));
}

void
BufferingTraceSink::onSmSlice(const SmSliceRecord &rec)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Entry e;
    e.kind = Entry::Kind::SmSlice;
    e.smSlice = rec;
    records_.push_back(std::move(e));
}

void
BufferingTraceSink::replayTo(TraceSink &sink) const
{
    for (const Entry &e : records_) {
        switch (e.kind) {
          case Entry::Kind::EpochKernel:
            sink.onEpochKernel(e.epochKernel);
            break;
          case Entry::Kind::EpochMem:
            sink.onEpochMem(e.epochMem);
            break;
          case Entry::Kind::AllocEvent:
            sink.onAllocEvent(e.allocEvent);
            break;
          case Entry::Kind::Serving:
            sink.onServingEvent(e.serving);
            break;
          case Entry::Kind::SmSlice:
            sink.onSmSlice(e.smSlice);
            break;
        }
    }
}

Result<std::unique_ptr<JsonlTraceSink>>
JsonlTraceSink::open(const std::string &path)
{
    auto f = openFile(path);
    if (!f.ok())
        return f.error();
    return std::unique_ptr<JsonlTraceSink>(
        new JsonlTraceSink(f.value()));
}

JsonlTraceSink::~JsonlTraceSink()
{
    std::fclose(file_);
}

void
JsonlTraceSink::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
}

void
JsonlTraceSink::onEpochKernel(const EpochKernelRecord &rec)
{
    writeLine(jsonlEpochKernel(rec));
}

void
JsonlTraceSink::onEpochMem(const EpochMemRecord &rec)
{
    writeLine(jsonlEpochMem(rec));
}

void
JsonlTraceSink::onAllocEvent(const AllocEventRecord &rec)
{
    writeLine(jsonlAllocEvent(rec));
}

void
JsonlTraceSink::onServingEvent(const ServingEventRecord &rec)
{
    writeLine(jsonlServingEvent(rec));
}

void
JsonlTraceSink::onSmSlice(const SmSliceRecord &rec)
{
    writeLine(jsonlSmSlice(rec));
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
    std::string path = spec;
    auto comma = spec.rfind(',');
    if (comma != std::string::npos &&
        looksLikeFormatToken(spec.substr(comma + 1))) {
        std::string format = spec.substr(comma + 1);
        path = spec.substr(0, comma);
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
