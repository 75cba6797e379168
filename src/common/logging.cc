/**
 * @file
 * Implementation of the status-message helpers.
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace gqos
{

namespace
{

LogLevel gLogLevel = LogLevel::Normal;

/** The thread that ran static initialisation, i.e. main()'s. */
const std::thread::id gMainThread = std::this_thread::get_id();

void
vreport(FILE *stream, const char *prefix, const char *fmt, va_list ap)
{
    std::fprintf(stream, "%s", prefix);
    std::vfprintf(stream, fmt, ap);
    std::fprintf(stream, "\n");
    std::fflush(stream);
}

} // anonymous namespace

LogLevel
logLevel()
{
    return gLogLevel;
}

void
setLogLevel(LogLevel level)
{
    gLogLevel = level;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    // Off the main thread, exit() would run static destructors while
    // other threads still use those objects. Flush every stdio stream
    // (stdout, the JSONL trace) by hand, then leave without them.
    if (std::this_thread::get_id() != gMainThread) {
        std::fflush(nullptr);
        std::_Exit(1);
    }
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (gLogLevel == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport(stderr, "warn: ", fmt, ap);
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    if (gLogLevel == LogLevel::Quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport(stdout, "info: ", fmt, ap);
    va_end(ap);
}

void
debugImpl(const char *fmt, ...)
{
    if (gLogLevel != LogLevel::Verbose)
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport(stdout, "debug: ", fmt, ap);
    va_end(ap);
}

void
assertFailImpl(const char *file, int line, const char *cond)
{
    panicImpl(file, line, "assertion failed: %s", cond);
}

void
assertFailImpl(const char *file, int line, const char *cond,
               const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: assertion failed: %s: ",
                 file, line, cond);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::abort();
}

} // namespace gqos
