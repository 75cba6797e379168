/**
 * @file
 * Measurement primitives of the repository benchmark: tail
 * percentiles with their sample counts, ratios that keep their base,
 * an in-memory span recorder for the traced run, a timing decorator
 * for trace sinks, and a digest of simulated results.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hh"
#include "telemetry/trace.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nearest-rank percentile @p pct (0..100) of @p samples. */
double percentile(std::vector<double> samples, int pct);

/**
 * Median of @p samples, the mean of the middle two for an even count
 * (so a run of two rounds reports their mean); 0 when empty.
 */
double median(std::vector<double> samples);

/** A tail percentile together with the samples that back it. */
struct TailPercentile
{
    int pct = 0;            //!< the percentile reported
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; //!< samples strictly above its rank
};

/**
 * The highest whole percentile <= @p max_pct that still has at least
 * @p min_beyond samples beyond its nearest rank, and its value. Falls
 * back to the median when there are too few samples for any tail;
 * `beyond` then tells the reader how thin it is.
 */
TailPercentile tailPercentile(std::vector<double> samples,
                              int max_pct = 95,
                              std::size_t min_beyond = 10);

/** A ratio that keeps its numerator and base. */
struct Ratio
{
    double num = 0.0;
    double base = 0.0;

    double value() const { return base > 0.0 ? num / base : 0.0; }
    /** "value (num/base)" for the human-readable table. */
    std::string describe() const;
};

/** One traced interval recorded by the benchmark's own code. */
struct Span
{
    int id = 0;
    int parent = -1;            //!< -1 = root
    std::uint64_t caseId = 0;   //!< shared by the spans of one case
    std::string layer;          //!< "bench", "harness", "engine", ...
    std::string name;           //!< the API call, e.g. "Runner::run"
    double start = 0.0;         //!< seconds since the recorder began
    double end = 0.0;
};

/**
 * In-memory span recorder. Single-threaded: spans are opened around
 * calls the benchmark makes from its main thread (a parallel runSweep
 * is one span). A disabled recorder records nothing.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    /** Closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, int index) : rec_(rec), index_(index) {}
        Scope(Scope &&other) noexcept;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

      private:
        SpanRecorder *rec_;
        int index_;
    };

    /** Open a span as a child of the innermost open span. */
    Scope open(const char *layer, std::string name,
               std::uint64_t case_id = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of spans called @p name. */
    double totalSeconds(const std::string &name) const;

    /** Sum of self time (duration minus covered child time) by layer. */
    std::vector<std::pair<std::string, double>> selfSecondsByLayer()
        const;

    /** Write every span as one JSON document. */
    gqos::Result<void> writeJson(const std::string &path) const;

  private:
    void close(int index);

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> openStack_;
};

/**
 * Trace-sink decorator that forwards every record unchanged and
 * accumulates the host time spent inside the wrapped sink and the
 * number of records. Thread-safe like the sinks it wraps.
 */
class TimingTraceSink : public gqos::TraceSink
{
  public:
    explicit TimingTraceSink(gqos::TraceSink *inner) : inner_(inner) {}

    void onEpochKernel(const gqos::EpochKernelRecord &rec) override;
    void onEpochMem(const gqos::EpochMemRecord &rec) override;
    void onAllocEvent(const gqos::AllocEventRecord &rec) override;
    void onServingEvent(const gqos::ServingEventRecord &rec) override;
    void onSmSlice(const gqos::SmSliceRecord &rec) override;
    void flush() override;

    double seconds() const { return ns_.load() * 1e-9; }
    std::uint64_t records() const { return records_.load(); }

  private:
    template <typename Fn> void timed(Fn &&fn, bool is_record);

    gqos::TraceSink *inner_;
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> records_{0};
};

/**
 * FNV-1a digest over simulated results. Doubles are hashed by their
 * bit pattern, so a speed-only change must reproduce it exactly.
 */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Host-speed probe: a fixed slice of work that shares no code with
 * the simulator but resembles its hot loops, a dependent pointer chase
 * with a data-dependent branch per step and an LRU set-associative tag
 * model, both over L2-sized tables. Timing slices of it between the
 * workload's steps tells how fast the host ran the workload then, so
 * host times can be scaled to a reference speed and a shared host that
 * changes speed between runs does not read as a change in the program.
 */
class HostProbe
{
  public:
    HostProbe();

    /** Run one slice; its host time in seconds. */
    double slice();

    /** Run @p n slices; the host time of each is appended to @p out. */
    void sample(int n, std::vector<double> &out);

  private:
    std::vector<std::uint32_t> next_;
    std::vector<std::uint64_t> tags_;
    std::uint32_t at_ = 0;
    std::uint64_t state_ = 1;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** nproc, compiler, build type and load average, as one JSON object. */
std::string hostFingerprintJson();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
