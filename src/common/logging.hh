/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs), fatal() for user errors that make it
 * impossible to continue (bad configuration, invalid arguments),
 * warn()/inform() for non-fatal status messages.
 */

#ifndef GQOS_COMMON_LOGGING_HH
#define GQOS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace gqos
{

/** Verbosity levels for status messages. */
enum class LogLevel
{
    Quiet,   //!< only panic/fatal output
    Normal,  //!< warn + inform
    Verbose  //!< adds debug trace messages
};

/** Global log level; defaults to Normal. */
LogLevel logLevel();

/** Set the global log level. */
void setLogLevel(LogLevel level);

/**
 * Report an internal error that should never happen regardless of
 * user input, then abort(). Use for simulator bugs only.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...);

/**
 * Report an unrecoverable user-caused error (bad configuration,
 * invalid arguments), then exit(1). Off the main thread it flushes
 * every stdio stream and calls _Exit(1) instead, skipping atexit
 * handlers and static destructors.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...);

/** Print a warning about questionable but survivable conditions. */
void warnImpl(const char *fmt, ...);

/** Print an informational status message. */
void informImpl(const char *fmt, ...);

/** Print a verbose debug message (only at LogLevel::Verbose). */
void debugImpl(const char *fmt, ...);

/** gqos_assert failure with no message: report the condition. */
[[noreturn]] void assertFailImpl(const char *file, int line,
                                 const char *cond);

/** gqos_assert failure with a printf-style explanation. */
[[noreturn]]
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 4, 5)))
#endif
void assertFailImpl(const char *file, int line, const char *cond,
                    const char *fmt, ...);

} // namespace gqos

#define gqos_panic(...) \
    ::gqos::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define gqos_fatal(...) \
    ::gqos::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define gqos_warn(...) ::gqos::warnImpl(__VA_ARGS__)
#define gqos_inform(...) ::gqos::informImpl(__VA_ARGS__)
#define gqos_debug(...) ::gqos::debugImpl(__VA_ARGS__)

/**
 * Lightweight always-on assertion used for cheap invariant checks in
 * the simulator core. Unlike assert(), it survives NDEBUG builds and
 * reports through panic(). An optional printf-style message after
 * the condition is printed alongside the stringified condition:
 * gqos_assert(q >= 0, "kernel %d quota went negative", k).
 */
#define gqos_assert(cond, ...)                                        \
    do {                                                              \
        if (!(cond)) {                                                \
            ::gqos::assertFailImpl(__FILE__, __LINE__,                \
                                   #cond __VA_OPT__(, ) __VA_ARGS__); \
        }                                                             \
    } while (0)

#endif // GQOS_COMMON_LOGGING_HH
