/**
 * @file
 * Result-cache implementation: CRC-sealed lines, batched appends
 * under a flock across processes and a mutex across threads, and an
 * atomic rewrite only to drop quarantined lines on load.
 */

#include "harness/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.hh"
#include "common/cli.hh"
#include "common/fault_injection.hh"
#include "common/logging.hh"
#include "common/result.hh"

namespace gqos
{

namespace
{

/**
 * Advisory exclusive lock on <path>.lock. Best effort: if the lock
 * file cannot be created the caller proceeds unlocked with a warn
 * (a read-only cache directory must not kill the run). flock is
 * per open-file-description, so it also serializes threads of one
 * process — but the in-process mutex is always taken first, making
 * the flock purely the cross-process layer.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
    {
        std::string lock_path = path + ".lock";
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd_ < 0) {
            gqos_warn("cannot create lock file '%s' (%s); cache "
                      "updates are unlocked", lock_path.c_str(),
                      std::strerror(errno));
            return;
        }
        if (::flock(fd_, LOCK_EX) != 0) {
            gqos_warn("flock('%s') failed (%s)", lock_path.c_str(),
                      std::strerror(errno));
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~FileLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/**
 * Crash-safe whole-file write: write to a sibling temp file, fsync,
 * then rename over @p path so readers see either the old or the new
 * content, never a torn mix. Used by load() to drop quarantined
 * lines.
 */
Result<void>
writeFileAtomic(const std::string &path, const std::string &content)
{
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        return Error::format(ErrorCode::IoError,
                             "cannot open '%s' for writing (%s)",
                             tmp.c_str(), std::strerror(errno));
    }
    bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
              content.size();
    ok = std::fflush(f) == 0 && ok;
    ok = ::fsync(::fileno(f)) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error::format(ErrorCode::IoError,
                             "atomic write of '%s' failed (%s)",
                             path.c_str(), std::strerror(errno));
    }
    return {};
}

/**
 * Append @p lines to the cache file @p path in one write through an
 * O_APPEND descriptor, then fsync. An empty (or missing) file gets
 * the header first. If the file does not end in '\n' -- a writer
 * crashed mid-append -- the batch starts with one, so the torn line
 * stays a line of its own (and fails its CRC on the next load)
 * instead of swallowing the first new one. The caller holds the
 * flock.
 */
Result<void>
appendBatch(const std::string &path,
            const std::vector<std::string> &lines)
{
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND |
                                      O_CLOEXEC, 0644);
    if (fd < 0) {
        return Error::format(ErrorCode::IoError,
                             "cannot open '%s' for appending (%s)",
                             path.c_str(), std::strerror(errno));
    }
    std::string batch;
    struct stat st;
    bool ok = ::fstat(fd, &st) == 0;
    char last = '\n';
    if (ok && st.st_size == 0)
        batch = std::string(ResultCache::header) + "\n";
    else if (ok)
        ok = ::pread(fd, &last, 1, st.st_size - 1) == 1;
    if (last != '\n')
        batch = "\n";
    for (const auto &line : lines)
        batch += line + "\n";
    for (std::size_t off = 0; ok && off < batch.size();) {
        ssize_t n = ::write(fd, batch.data() + off,
                            batch.size() - off);
        if (n > 0)
            off += static_cast<std::size_t>(n);
        else if (n == 0 || errno != EINTR)
            ok = false;
    }
    ok = ok && ::fsync(fd) == 0;
    ok = ::close(fd) == 0 && ok;
    if (!ok) {
        return Error::format(ErrorCode::IoError,
                             "append to '%s' failed (%s)",
                             path.c_str(), std::strerror(errno));
    }
    return {};
}

std::string
formatDouble(double v)
{
    // Max precision so a cache round trip is bit-exact.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** "crc8hex;payload" for one cache record. */
std::string
sealLine(const std::string &payload)
{
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", crc32(payload));
    return std::string(crc) + ";" + payload;
}

} // anonymous namespace

std::shared_ptr<ResultCache>
ResultCache::open(const std::string &path)
{
    // Construction (including the initial load) happens before the
    // instance is shared, so no locking is needed inside load().
    std::shared_ptr<ResultCache> cache(new ResultCache(path));
    cache->load();
    return cache;
}

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {}

ResultCache::~ResultCache()
{
    flush();
}

bool
ResultCache::parseLine(const std::string &line, std::string &key,
                       CachedCase &c)
{
    // Leading field: exactly 8 hex digits of CRC32.
    if (line.size() < 10 || line[8] != ';')
        return false;
    char *end = nullptr;
    std::string crc_text = line.substr(0, 8);
    unsigned long stored = std::strtoul(crc_text.c_str(), &end, 16);
    if (end != crc_text.c_str() + 8)
        return false;
    std::string payload = line.substr(9);
    if (crc32(payload) != static_cast<std::uint32_t>(stored))
        return false;

    // payload: key;ipc0,ipc1,...;ipw;preempt;dram;
    std::istringstream ls(payload);
    std::string ipcs, ipw, pre, dram;
    if (!std::getline(ls, key, ';') ||
        !std::getline(ls, ipcs, ';') ||
        !std::getline(ls, ipw, ';') ||
        !std::getline(ls, pre, ';') ||
        !std::getline(ls, dram, ';')) {
        return false;
    }
    if (key.empty() || ipcs.empty())
        return false;
    // Every number must parse whole: a sealed but empty or
    // non-numeric token is corrupt, not a zero.
    c.ipc.clear();
    std::istringstream is(ipcs);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        Result<double> ipc = parseFinite(tok, "cache ipc");
        if (!ipc.ok())
            return false;
        c.ipc.push_back(ipc.value());
    }
    Result<double> perWatt = parseFinite(ipw, "cache instr/W");
    Result<std::uint64_t> preempts =
        parseUnsigned(pre, "cache preemptions");
    Result<double> dramRate = parseFinite(dram, "cache dram rate");
    if (!perWatt.ok() || !preempts.ok() || !dramRate.ok())
        return false;
    c.instrPerWatt = perWatt.value();
    c.preemptions = preempts.value();
    c.dramPerKcycle = dramRate.value();
    return true;
}

void
ResultCache::load()
{
    quarantined_ = 0;
    FileLock lock(path_);

    std::ifstream in(path_);
    if (!in)
        return;

    std::string first;
    if (!std::getline(in, first) || first != header) {
        // Unrecognized or older format: never guess at its
        // contents. Quarantine the whole file and start fresh; every
        // case re-simulates.
        in.close();
        std::string quarantine = path_ + ".corrupt";
        std::rename(path_.c_str(), quarantine.c_str());
        gqos_warn("cache '%s' has %s ('%s'); moved to '%s', all "
                  "cases will be re-simulated", path_.c_str(),
                  first.rfind("#gqos-cache", 0) == 0
                      ? "a mismatched version"
                      : "no valid header",
                  first.substr(0, 40).c_str(), quarantine.c_str());
        return;
    }

    std::vector<std::string> bad;
    std::vector<std::string> good;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key;
        CachedCase c;
        bool corrupt = faultAt("cache_read") ||
                       !parseLine(line, key, c);
        if (corrupt) {
            bad.push_back(line);
            continue;
        }
        good.push_back(line);
        entries_[key] = std::move(c);
    }
    in.close();

    if (bad.empty())
        return;

    // Quarantine: preserve the corrupt lines for postmortem, drop
    // them from the live file (atomically), and say so once. The
    // affected cases re-simulate transparently on first use.
    quarantined_ = static_cast<int>(bad.size());
    std::string quarantine = path_ + ".quarantine";
    std::ofstream q(quarantine, std::ios::app);
    for (const auto &l : bad)
        q << l << "\n";
    q.close();

    std::string content = std::string(header) + "\n";
    for (const auto &l : good)
        content += l + "\n";
    Result<void> w = writeFileAtomic(path_, content);
    if (!w.ok())
        gqos_warn("%s", w.error().message().c_str());
    gqos_warn("quarantined %d corrupt cache line(s) from '%s' to "
              "'%s'; affected cases will be re-simulated",
              quarantined_, path_.c_str(), quarantine.c_str());
}

bool
ResultCache::lookup(const std::string &key, CachedCase &out) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    out = it->second;
    return true;
}

void
ResultCache::insert(const std::string &key, const CachedCase &c)
{
    std::string payload = key + ";";
    for (std::size_t i = 0; i < c.ipc.size(); ++i)
        payload += (i ? "," : "") + formatDouble(c.ipc[i]);
    payload += ";" + formatDouble(c.instrPerWatt) + ";" +
               std::to_string(c.preemptions) + ";" +
               formatDouble(c.dramPerKcycle) + ";";
    std::string line = sealLine(payload);

    bool drop_append = false;
    if (faultAt("cache_write")) {
        gqos_warn("fault injection: dropped cache append for '%s'",
                  key.c_str());
        drop_append = true;
    }
    if (!drop_append && faultAt("cache_corrupt") &&
        line.size() > 12) {
        // Bit-flip one payload character *after* sealing, so the
        // loader's CRC check must catch it.
        line[12] ^= 0x01;
    }

    std::lock_guard<std::mutex> guard(mutex_);
    entries_[key] = c;
    inserted_.insert(key);
    if (drop_append)
        return;
    pending_.push_back(std::move(line));
    if (static_cast<int>(pending_.size()) >= appendBatchSize)
        flushLocked();
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> guard(mutex_);
    flushLocked();
}

void
ResultCache::flushLocked()
{
    if (pending_.empty())
        return;

    // Append under the advisory lock. A concurrent process's lines
    // stay in place, so the file is not re-read or rewritten; only
    // its last byte is checked for a torn line.
    FileLock lock(path_);
    Result<void> w = appendBatch(path_, pending_);
    if (!w.ok()) {
        gqos_warn("cannot append to cache '%s': %s", path_.c_str(),
                  w.error().message().c_str());
    }
    pending_.clear();
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return entries_.size();
}

bool
ResultCache::claimTraceBypassWarning(const std::string &key)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (traceBypassWarned_ || inserted_.count(key))
        return false;
    traceBypassWarned_ = true;
    return true;
}

} // namespace gqos
