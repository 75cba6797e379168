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
 *    serializes appends against concurrent bench *processes*
 *    sharing the cache directory.
 *
 * The file is append-only: insert() buffers sealed lines and
 * appends them in one write per appendBatchSize entries (or on
 * flush() / destruction), then fsyncs. Lines other processes
 * appended stay where they are, so nothing is re-read or rewritten
 * on the write path. A crash loses at most the current batch; a
 * line it tore fails its CRC and is quarantined by the next load.
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
 * The CRC covers everything after the first ';' of the line. Lines
 * are appended under the advisory lock; lines failing validation
 * on load are moved to a .quarantine side file, warned about once,
 * and their cases re-simulate on demand.
 */
class ResultCache
{
  public:
    /** Header line expected at the top of every cache file. */
    static constexpr const char *header = "#gqos-cache v2";

    /** Pending appends buffered before one append to disk. */
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
     * Whether a hit on @p key should warn that it bypassed a
     * requested trace: only for an entry loaded from disk (one this
     * process inserted was simulated, and traced, here), and only
     * for the first such hit, so the Runners sharing this cache
     * warn once, not once each.
     */
    bool claimTraceBypassWarning(const std::string &key);

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
    /** Append pending_ to the file; mutex_ must be held. */
    void flushLocked();

    std::string path_;
    mutable std::mutex mutex_;
    std::map<std::string, CachedCase> entries_;
    /** Keys insert()ed by this process, as opposed to loaded. */
    std::set<std::string> inserted_;
    std::vector<std::string> pending_;
    int quarantined_ = 0;
    bool traceBypassWarned_ = false;
};

} // namespace gqos

#endif // GQOS_HARNESS_RESULT_CACHE_HH
