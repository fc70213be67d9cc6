/**
 * @file
 * Benchmark program: runs one workload and prints, as the last line of
 * standard output, one JSON object
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * with the end-to-end metrics (untraced run) or the per-layer metrics
 * (--trace 1). Lines before it are informational: the environment
 * block, the simulated-output digest and `sim.*` values.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans PATH]
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_grid|serve_bursty|scale_1024|fleet_faults --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n",
                 why.c_str());
    std::exit(2);
}

unsigned long long
parseUnsigned(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(std::string(flag) + " expects a non-negative integer");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " expects a value");
        const char *value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(value, "--seed");
        } else if (flag == "--seconds") {
            const unsigned long long s = parseUnsigned(value, "--seconds");
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            opt.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (flag == "--trace") {
            const unsigned long long t = parseUnsigned(value, "--trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            opt.trace = t == 1;
        } else if (flag == "--spans") {
            opt.spansPath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty() || !haveSeconds)
        usage("--workload and --seconds are required");
    return opt;
}

void
printResult(const RunResult &r)
{
    std::int64_t failed = r.failed;
    std::string metrics;
    for (const perfbench::Metric &m : r.metrics) {
        double v = m.value;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "CHECK FAILED: metric %s is not finite\n",
                         m.name.c_str());
            ++failed;
            v = -1.0;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(), v,
                      m.unit.c_str());
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<long long>(std::max<std::int64_t>(r.attempted,
                                                              1)),
                static_cast<long long>(failed), metrics.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    RunResult result;
    try {
        if (opt.workload == "paper_grid")
            result = perfbench::runPaperGrid(opt);
        else if (opt.workload == "serve_bursty")
            result = perfbench::runServeBursty(opt);
        else if (opt.workload == "scale_1024")
            result = perfbench::runScale1024(opt);
        else if (opt.workload == "fleet_faults")
            result = perfbench::runFleetFaults(opt);
        else
            usage("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::fflush(stdout);
    printResult(result);
    return 0;
}
