/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * a workload reports (named metrics plus attempted/failed operation
 * counts), a digest of simulated outputs, sample statistics, and the
 * in-memory host-time span log of the traced pass.
 *
 * Every number this benchmark reports is host time or a host-side
 * count. Simulated time is the simulator's output; it only enters the
 * digest and the informational `sim.*` lines.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/moentwine.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Length of the measured phase (seconds). */
    double seconds = 10.0;
    /** Traced pass: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Where the traced pass writes its spans (empty: not written). */
    std::string spansPath;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one workload run reports. */
struct RunResult
{
    std::vector<Metric> metrics;
    /** Operations attempted and failed (cells, replayed iterations,
     *  served streams, invariant checks). */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Count one checked operation; a failure is reported on stderr. */
    void check(bool ok, const std::string &what);
};

/** Print one informational `key value` line (not a gated metric). */
void info(const std::string &key, const std::string &value);
void info(const std::string &key, double value);

/**
 * FNV-1a over the bit patterns of simulated outputs: equal digests
 * mean bitwise-equal simulated results.
 */
class Digest
{
  public:
    void add(double x);
    void add(std::int64_t x);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** splitmix64: derives independent seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** Percentile @p p in [0, 100] with linear interpolation (0 when empty). */
double percentile(std::vector<double> xs, double p);

/**
 * Mean of the samples ranked within +-2 percentile points of @p p.
 * Host times per iteration are a mixture of a few step classes in
 * fixed proportions (the grid's schedules, the serve loop's decode and
 * prefill iterations), and a plain quantile that lands between two
 * classes reads their extreme samples; the window reads their bulk.
 */
double windowPercentile(std::vector<double> xs, double p);

/** Peak resident set (VmHWM) of this process in MB; 0 when unknown. */
double peakRssMb();

/** Least set-up samples per run, and the least host time of one. */
constexpr int kSetupSamples = 15;
constexpr double kSetupSampleSec = 0.1;

/**
 * Times one full set-up, a call of @p fn, in samples a run spreads over
 * its measured phase (one after each measured unit), so a passing
 * slow spell of the host weighs on set-up no more than on throughput.
 * Each sample averages enough calls to take at least kSetupSampleSec,
 * so sub-millisecond set-ups are not timer noise. The constructor makes
 * one untimed call that first touches the allocator and caches.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<void()> fn) : fn_(std::move(fn))
    {
        fn_();
    }

    /** Take one sample. */
    void sample()
    {
        const Clock::time_point t0 = Clock::now();
        int calls = 0;
        do {
            fn_();
            ++calls;
        } while (secondsSince(t0) < kSetupSampleSec);
        perCall_.push_back(secondsSince(t0) / calls);
    }

    /** Median seconds of one set-up, after topping the samples up to
     *  kSetupSamples. */
    double seconds()
    {
        while (perCall_.size() < static_cast<std::size_t>(kSetupSamples))
            sample();
        return median(perCall_);
    }

  private:
    std::function<void()> fn_;
    std::vector<double> perCall_;
};

/** SetupTimer(fn).seconds(): kSetupSamples samples taken back to back. */
inline double
medianSetupSeconds(std::function<void()> fn)
{
    return SetupTimer(std::move(fn)).seconds();
}

/**
 * Host-time spans of the traced pass. Spans are kept in memory
 * (bounded; the totals callers accumulate stay exact when the bound
 * is hit) and written as a Chrome trace-event file at exit.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span; returns its id (the parent of nested spans). */
    int open(const char *name, int parent = -1);

    /** Close span @p id and return its duration in seconds. */
    double close(int id);

    /** Write every recorded span; false when the file cannot open. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        int parent;
    };

    double nowUs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<double> unrecordedStart_;
};

/** RAII span that adds its duration to an accumulator (seconds). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, double &total,
               int parent = -1)
        : log_(log), total_(total), id_(log.open(name, parent))
    {
    }
    ~ScopedSpan() { total_ += log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    double &total_;
    int id_;
};

/** CPUs this process may run on (at least 1). */
int allowedCpuCount();

/** Print the environment block (host, build, worker count). */
void printEnvironment(int workers);

// The four workloads (workloads.cc).
RunResult runPaperGrid(const Options &opt);
RunResult runServeBursty(const Options &opt);
RunResult runScale1024(const Options &opt);
RunResult runFleetFaults(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
