/**
 * @file
 * Minimal gem5-style status/error reporting helpers.
 *
 * Two terminating helpers are provided, mirroring gem5's conventions:
 *   - panic():   an internal simulator invariant was violated (a bug in
 *                this code base); aborts so a core dump is available.
 *   - fatal():   the user supplied an impossible configuration; exits
 *                with a non-zero status after printing the reason.
 *
 * warn() prints a non-fatal status message to stderr. Each
 * message goes out as ONE stdio call carrying the complete line,
 * newline included: POSIX stdio streams lock around every call, so
 * concurrent sweep workers may interleave whole lines but never the
 * characters within one (no torn "warn: ..." prefixes in parallel
 * bench runs). Multi-line interleaving is still possible — emit one
 * line per call.
 */

#ifndef MOENTWINE_COMMON_LOGGING_HH
#define MOENTWINE_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace moentwine {

/**
 * Abort the process after reporting an internal invariant violation.
 *
 * @param msg Human-readable description of the broken invariant.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/**
 * Exit the process after reporting a user configuration error.
 *
 * @param msg Human-readable description of the invalid configuration.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/**
 * Emit one complete log line (prefix + message + newline) as a single
 * locked stdio write, so lines from concurrent threads never
 * interleave mid-line.
 */
inline void
logLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 16);
    line += prefix;
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}

/** Print a non-fatal warning to stderr (thread-safe, line-atomic). */
inline void
warn(const std::string &msg)
{
    logLine("warn: ", msg);
}

/**
 * Check a simulator invariant; panics with the stringified expression
 * when the condition does not hold. Always active (not compiled out in
 * release builds) because the simulator is cheap relative to the cost
 * of silently wrong results.
 */
#define MOE_ASSERT(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::moentwine::panic(std::string("assertion failed: ") + #cond + \
                               " — " + (msg));                              \
        }                                                                   \
    } while (0)

} // namespace moentwine

#endif // MOENTWINE_COMMON_LOGGING_HH
