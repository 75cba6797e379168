/**
 * @file
 * Epoch-grained QoS telemetry: trace records and sinks.
 *
 * The simulator computes rich per-epoch state — alpha correction,
 * elastic epoch lengths, rollover carry, the multiplicative non-QoS
 * goal search — and without a trace it is all discarded at the next
 * epoch boundary. Five record kinds carry it out, one TraceRecord
 * variant holds any of them:
 *
 *   - EpochKernelRecord: one per (epoch, kernel)
 *   - EpochMemRecord: one memory-system record per epoch
 *   - AllocEventRecord: one per static-allocator TB reallocation
 *   - ServingEventRecord: serving-driver lifecycle and control events
 *   - SmSliceRecord: one kernel-occupancy span on one SM
 *
 * so a goal miss or an oscillating non-QoS quota can be replayed
 * offline.
 *
 * Producers (QuotaController, StaticAllocator, Runner,
 * ServingDriver) hold a plain `TraceSink *` that defaults to
 * nullptr; every emission site is guarded by that null check, so an
 * untraced run pays one branch per epoch and nothing else —
 * simulation results are byte-identical with tracing on or off,
 * because sinks only observe.
 *
 * Sinks implement one hook, TraceSink::onRecord(). JsonlTraceSink
 * writes one JSON object per line; it is thread-safe (lines are
 * appended atomically under a mutex), so sweep workers may share
 * one sink — records from different cases interleave but each
 * carries its case key (stamped by CaseLabelingSink).
 * RecordingTraceSink keeps records in memory, in emission order,
 * for tests, programmatic consumers and ordered replay.
 */

#ifndef GQOS_TELEMETRY_TRACE_HH
#define GQOS_TELEMETRY_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "arch/types.hh"
#include "common/result.hh"

namespace gqos
{

/**
 * Schema version stamped into every serialized trace record (JSONL
 * field "schema_version") so downstream tooling can
 * diff and version-gate outputs. Bump whenever a record gains,
 * loses or reinterprets a field.
 *
 *   1: initial JSONL/CSV layout
 *   2: schema_version stamped; serving_event gains queue_depth;
 *      new sm_slice record kind (cycle-attribution timeline)
 */
constexpr int traceSchemaVersion = 2;

/**
 * One record per (epoch, kernel), emitted at each epoch boundary
 * for the epoch that just ended (plus one final partial record at
 * run end so instruction deltas sum to the run total).
 */
struct EpochKernelRecord
{
    std::string caseKey;      //!< harness case identity ("" if none)
    int epoch = 0;            //!< epoch index, contiguous from 0
    Cycle start = 0;          //!< first cycle of the epoch
    Cycle length = 0;         //!< cycles (elastic: <= epochLength)
    bool finalPartial = false; //!< trailing sub-epoch at run end
    int kernel = 0;           //!< KernelId
    bool isQos = false;
    double goalIpc = 0.0;     //!< absolute IPC goal (0 = non-QoS)
    double nonQosGoal = 0.0;  //!< artificial goal (Section 3.5)
    double alpha = 1.0;       //!< history adjustment in effect
    double ipcEpoch = 0.0;    //!< thread-IPC over this epoch
    double ipcHistory = 0.0;  //!< post-settle lifetime IPC
    double attainment = 0.0;  //!< ipcEpoch / goalIpc (QoS only)
    double quotaGranted = 0.0; //!< total quota allocated this epoch
    std::uint64_t instrDelta = 0;    //!< thread instrs retired
    std::uint64_t completedTbs = 0;  //!< TBs completed this epoch
    std::uint64_t preemptedTbs = 0;  //!< TBs preempted this epoch
    std::uint64_t quotaRefills = 0;  //!< mid-epoch refill grants
    int tbTarget = 0;         //!< sum of per-SM TB targets (at end)
    int tbResident = 0;       //!< resident TBs across SMs (at end)
    double iwAverage = 0.0;   //!< mean idle-warp sample per SM
    double gatedFraction = 0.0; //!< mean EWS-gated cycle fraction
    std::vector<double> leftoverPerSm; //!< quota counters at end
};

/** Per-epoch memory-system activity (deltas over the epoch). */
struct EpochMemRecord
{
    std::string caseKey;
    int epoch = 0;
    Cycle start = 0;
    Cycle length = 0;
    bool finalPartial = false;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t contextLines = 0; //!< preemption context traffic
};

/** One TB-reallocation decision of the static allocator. */
struct AllocEventRecord
{
    std::string caseKey;
    int epoch = 0;
    Cycle cycle = 0;
    int sm = 0;
    int kernel = 0;
    int delta = 0;       //!< target change: +1 grow, -1 evict
    std::string reason;  //!< "grow", "evict", "restore", ...
    double iwAverage = 0.0; //!< kernel's idle-warp average on @p sm
};

/**
 * One request-lifecycle or control event of the online serving
 * driver: arrivals, dispatches, completions, rejections, queue
 * abandonments, degradation-ladder moves, tenant stalls and
 * shutdown drops all flow through this record.
 */
struct ServingEventRecord
{
    std::string caseKey;
    Cycle cycle = 0;
    std::string event;   //!< "arrival", "dispatch", "complete", ...
    std::string tenant;  //!< tenant name ("" for server-wide events)
    std::uint64_t request = 0; //!< per-tenant request sequence number
    std::uint64_t latency = 0; //!< launch-to-done cycles (complete)
    int level = 0;       //!< degradation-ladder level when emitted
    std::string detail;  //!< outcome / reason, free-form but stable
    /** Tenant queue depth right after the event (server-wide events
     *  carry the total backlog); drives timeline counter tracks. */
    int queueDepth = 0;
};

/**
 * One kernel-occupancy span on one SM: kernel @p kernel had >= 1
 * resident TB on SM @p sm for cycles [start, end). Produced by the
 * harness from Gpu::setSmSliceCallback for the timeline exporter's
 * per-SM tracks.
 */
struct SmSliceRecord
{
    std::string caseKey;
    int sm = 0;
    int kernel = 0;
    Cycle start = 0;
    Cycle end = 0;
};

/** Any one trace record; the unit every sink consumes. */
using TraceRecord =
    std::variant<EpochKernelRecord, EpochMemRecord, AllocEventRecord,
                 ServingEventRecord, SmSliceRecord>;

/**
 * Telemetry consumer interface. Implementations must tolerate
 * concurrent calls from multiple sweep worker threads.
 *
 * Producers call the typed entry points (onEpochKernel, ...); a
 * sink implements the single hook onRecord(), which every typed
 * entry point forwards to by default. Decorators hand records on
 * with emit(), which calls the inner sink's typed entry point, so
 * a sink that overrides only typed entry points still sees every
 * record. The typed entry points stay virtual for such sinks
 * (perfbench's TimingTraceSink is one).
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void onEpochKernel(const EpochKernelRecord &rec)
    {
        onRecord(rec);
    }
    virtual void onEpochMem(const EpochMemRecord &rec) { onRecord(rec); }
    virtual void onAllocEvent(const AllocEventRecord &rec)
    {
        onRecord(rec);
    }
    virtual void onServingEvent(const ServingEventRecord &rec)
    {
        onRecord(rec);
    }
    virtual void onSmSlice(const SmSliceRecord &rec) { onRecord(rec); }

    /** Consume one record (default: ignore it). */
    virtual void onRecord(const TraceRecord &) {}

    /** Make everything emitted so far durable (default no-op). */
    virtual void flush() {}
};

/** Hand @p rec to the typed entry point of @p sink it belongs to. */
void emit(TraceSink &sink, const TraceRecord &rec);

/**
 * The Gpu::setSmSliceCallback callback that emits each closed
 * kernel-occupancy span to @p sink as an SmSliceRecord.
 */
std::function<void(SmId, KernelId, Cycle, Cycle)>
smSliceEmitter(TraceSink *sink);

/**
 * Decorator stamping every record with a case key before forwarding
 * to the shared backend. The harness wraps the run-wide sink in one
 * of these per simulated case, so records in a multi-case trace file
 * stay attributable even when sweep workers interleave.
 */
class CaseLabelingSink : public TraceSink
{
  public:
    CaseLabelingSink(TraceSink *inner, std::string case_key)
        : inner_(inner), caseKey_(std::move(case_key))
    {}

    void onRecord(const TraceRecord &rec) override;
    void flush() override { inner_->flush(); }

  private:
    TraceSink *inner_;
    std::string caseKey_;
};

/**
 * Fan-out decorator: forwards every record to two sinks. Used when
 * a bench is asked for both `--trace` and `--timeline` so producers
 * keep holding a single `TraceSink *`.
 */
class TeeTraceSink : public TraceSink
{
  public:
    TeeTraceSink(TraceSink *a, TraceSink *b) : a_(a), b_(b) {}

    void
    onRecord(const TraceRecord &rec) override
    {
        emit(*a_, rec);
        emit(*b_, rec);
    }

    void
    flush() override
    {
        a_->flush();
        b_->flush();
    }

  private:
    TraceSink *a_;
    TraceSink *b_;
};

/**
 * Order-preserving in-memory sink. Tests read it back per kind; the
 * serving harness gives each concurrently-simulated load point its
 * own one, then replays them into the real output sink in submission
 * order, so the trace file is byte-identical at any `--jobs` level.
 */
class RecordingTraceSink : public TraceSink
{
  public:
    void
    onRecord(const TraceRecord &rec) override
    {
        std::lock_guard<std::mutex> guard(mutex_);
        records_.push_back(rec);
    }

    /** Forward every recorded record to @p sink, in emission order. */
    void
    replayTo(TraceSink &sink) const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        for (const TraceRecord &rec : records_)
            emit(sink, rec);
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        return records_.size();
    }

    /** Every recorded record of kind @p T, in emission order. */
    template <class T>
    std::vector<T>
    all() const
    {
        std::lock_guard<std::mutex> guard(mutex_);
        std::vector<T> out;
        for (const TraceRecord &rec : records_) {
            if (const T *r = std::get_if<T>(&rec))
                out.push_back(*r);
        }
        return out;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<TraceRecord> records_;
};

/**
 * JSONL backend: one self-describing JSON object per line, whose
 * "type" field names the record kind: "epoch_kernel", "epoch_mem",
 * "alloc_event", "serving_event" or "sm_slice".
 */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Open @p path for writing (truncates). */
    static Result<std::unique_ptr<JsonlTraceSink>> open(
        const std::string &path);

    ~JsonlTraceSink() override;

    void onRecord(const TraceRecord &rec) override;
    void flush() override;

  private:
    explicit JsonlTraceSink(std::FILE *f) : file_(f) {}

    std::mutex mutex_;
    std::FILE *file_;
};

/**
 * Open a trace sink from a CLI spec "FILE[,format]". The only
 * format is "jsonl" (also the default); any other format token is
 * an InvalidArgument error.
 */
Result<std::unique_ptr<TraceSink>> openTraceSink(
    const std::string &spec);

/** The file part of a "FILE[,format]" trace spec. */
std::string traceSpecPath(const std::string &spec);

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace gqos

#endif // GQOS_TELEMETRY_TRACE_HH
