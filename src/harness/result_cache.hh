/**
 * @file
 * Shared on-disk result cache for simulated cases.
 *
 * One ResultCache instance backs one cache file and may be shared by
 * any number of Runners in the same process — including Runners on
 * different threads of a parallel sweep (see harness/sweep.hh). Two
 * layers of locking keep that safe:
 *
 *  - an in-process std::mutex serializes the in-memory map and the
 *    pending-append buffer between threads sharing this instance;
 *  - the advisory flock on <path>.lock (taken *inside* the mutex)
 *    serializes file rewrites against concurrent bench *processes*
 *    sharing the cache directory, exactly as before.
 *
 * Appends are batched: insert() buffers sealed lines and writes them
 * in one merge-append per appendBatchSize entries (or on flush() /
 * destruction), cutting lock traffic by an order of magnitude under
 * a parallel sweep. A crash loses at most the current batch — never
 * the integrity of the file, which stays CRC-sealed and atomically
 * replaced.
 */

#ifndef GQOS_HARNESS_RESULT_CACHE_HH
#define GQOS_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace gqos
{

/** Raw numbers one simulated case produced (cache payload). */
struct CachedCase
{
    std::vector<double> ipc;
    double instrPerWatt = 0.0;
    std::uint64_t preemptions = 0;
    double dramPerKcycle = 0.0;
};

/**
 * Crash-safe, thread-safe memoization of simulated cases.
 *
 * File format (version 2):
 *
 *     #gqos-cache v2
 *     <crc32-hex8>;key;ipc0,ipc1,...;ipw;preempt;dram;
 *
 * The CRC covers everything after the first ';' of the line. Files
 * are rewritten atomically (temp + rename) under the advisory lock;
 * lines failing validation are moved to a .quarantine side file,
 * warned about once, and their cases re-simulate on demand.
 */
class ResultCache
{
  public:
    /** Header line expected at the top of every cache file. */
    static constexpr const char *header = "#gqos-cache v2";

    /** Pending appends buffered before a merge-append to disk. */
    static constexpr int appendBatchSize = 16;

    /** Open @p path, loading (and quarantining) existing entries. */
    static std::shared_ptr<ResultCache> open(const std::string &path);

    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Look @p key up; true (and @p out filled) on a hit. */
    bool lookup(const std::string &key, CachedCase &out) const;

    /**
     * Record @p key -> @p c: immediately visible to every sharer of
     * this instance, durable after the next batch flush.
     */
    void insert(const std::string &key, const CachedCase &c);

    /** Write any pending appends to disk now. */
    void flush();

    /**
     * Record where an artifact of case @p key went (e.g. the trace
     * file a simulation wrote), in the metadata sidecar <path>.meta.
     * Kept out of the cache file itself so the CRC-sealed result
     * lines stay byte-identical whether or not tracing was on.
     */
    void noteArtifact(const std::string &key,
                      const std::string &value);

    /** Artifact recorded for case @p key ("" if none). */
    std::string artifact(const std::string &key) const;

    /**
     * Whether a hit on @p key should warn that it bypassed a
     * requested trace: only for an entry loaded from disk (one this
     * process inserted was simulated, and traced, here), and only
     * for the first such hit, so the Runners sharing this cache
     * warn once, not once each.
     */
    bool claimTraceBypassWarning(const std::string &key);

    const std::string &path() const { return path_; }

    /** Lines quarantined while loading the file. */
    int quarantinedLines() const { return quarantined_; }

    /** Entries currently held in memory. */
    std::size_t size() const;

    /**
     * Validate and split one sealed cache line into (key, case).
     * False on any malformation: bad CRC field, CRC mismatch,
     * missing payload fields, or a number that does not parse whole
     * (parseFinite/parseUnsigned, common/cli.hh). Exposed for tests.
     */
    static bool parseLine(const std::string &line, std::string &key,
                          CachedCase &c);

  private:
    explicit ResultCache(std::string path);

    void load();
    /** Merge-append pending_ to the file; mutex_ must be held. */
    void flushLocked();

    std::string path_;
    mutable std::mutex mutex_;
    std::map<std::string, CachedCase> entries_;
    /** Keys insert()ed by this process, as opposed to loaded. */
    std::set<std::string> inserted_;
    std::vector<std::string> pending_;
    /** key -> artifact, mirrored in the .meta sidecar file. */
    std::map<std::string, std::string> artifacts_;
    int quarantined_ = 0;
    bool traceBypassWarned_ = false;
};

} // namespace gqos

#endif // GQOS_HARNESS_RESULT_CACHE_HH
