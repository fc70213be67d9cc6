/**
 * @file
 * Shared command-line helpers for the bench drivers, next to jobs.hh.
 *
 * Every driver honours the same flag vocabulary:
 *   --jobs N         worker count (parsed by benchjobs in jobs.hh)
 *   --trace <path>   write a Chrome trace-event JSON (src/obs/trace.hh)
 *   --stats <path>   write the merged StatRegistry JSON
 *   --devices N      device-count override (scale_smoke)
 * All value flags accept both `--flag value` and `--flag=value`; when
 * a flag repeats, the last occurrence wins (the normal CLI override
 * convention — `bench --jobs 8 --jobs 1` runs serial), but every
 * occurrence is still validated. Numeric parsing is strtol-validated —
 * trailing garbage, overflow, and non-positive values are fatal(),
 * never silently atoi()'d to zero.
 */

#ifndef MOENTWINE_BENCH_FLAGS_HH
#define MOENTWINE_BENCH_FLAGS_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace moentwine {
namespace benchflags {

/**
 * Call fn(value) for every occurrence of a `--name value` /
 * `--name=value` flag, in command-line order; a flag present without
 * a value is fatal() wherever it appears.
 */
template <typename Fn>
void
forEachFlagValue(int argc, char **argv, const std::string &name, Fn &&fn)
{
    const std::string prefix = name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == name) {
            if (i + 1 >= argc)
                fatal(name + " expects a value");
            fn(std::string(argv[++i]));
        } else if (arg.rfind(prefix, 0) == 0) {
            fn(arg.substr(prefix.size()));
        }
    }
}

/**
 * Value of a `--name value` / `--name=value` flag; empty string when
 * the flag is absent. The last occurrence wins.
 */
inline std::string
stringFlag(int argc, char **argv, const std::string &name)
{
    std::string value;
    forEachFlagValue(argc, argv, name,
                     [&value](const std::string &v) { value = v; });
    return value;
}

/** parsePositiveInt() of @p text; fatal() on garbage or overflow. */
inline int
positiveInt(const std::string &text, const std::string &what)
{
    const int v = parsePositiveInt(text);
    if (v < 0)
        fatal(what + " expects a positive integer, got '" + text + "'");
    return v;
}

/**
 * Positive int value of a `--name value` / `--name=value` flag; 0
 * when the flag is absent. Every occurrence goes through
 * positiveInt(), so a malformed value is fatal() wherever it appears;
 * the last occurrence wins.
 */
inline int
intFlag(int argc, char **argv, const std::string &name)
{
    int value = 0;
    forEachFlagValue(argc, argv, name, [&](const std::string &v) {
        value = positiveInt(v, name);
    });
    return value;
}

/**
 * Positional (non-flag) arguments, with the values of the known
 * value-taking flags skipped. Unknown `--` flags are fatal() so a typo
 * never silently becomes a positional.
 */
inline std::vector<std::string>
positionals(int argc, char **argv)
{
    static const char *const kValueFlags[] = {"--jobs", "--trace",
                                              "--stats", "--devices"};
    std::vector<std::string> out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            bool known = false;
            for (const char *flag : kValueFlags) {
                if (arg == flag) {
                    ++i; // skip the flag's value
                    known = true;
                    break;
                }
                if (arg.rfind(std::string(flag) + "=", 0) == 0) {
                    known = true;
                    break;
                }
            }
            if (!known)
                fatal("unknown flag '" + arg + "'");
            continue;
        }
        out.push_back(arg);
    }
    return out;
}

} // namespace benchflags
} // namespace moentwine

#endif // MOENTWINE_BENCH_FLAGS_HH
