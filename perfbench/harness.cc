#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hh"
#include "obs/hw_counters.hh"

namespace perfbench {

namespace {

/** Spans kept in memory; later spans are timed but not recorded. */
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

/** CPUs this process may run on, as a compact list ("0-3"). */
std::string
allowedCpus(int &count)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    count = 0;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return "unknown";
    std::string out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &set))
            continue;
        ++count;
        int last = c;
        while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set))
            ++last;
        if (!out.empty())
            out += ",";
        out += std::to_string(c);
        if (last > c) {
            count += last - c;
            out += "-" + std::to_string(last);
        }
        c = last;
    }
    return out;
}

} // namespace

void
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
}

void
info(const std::string &key, const std::string &value)
{
    std::printf("%s %s\n", key.c_str(), value.c_str());
}

void
info(const std::string &key, double value)
{
    std::printf("%s %.9g\n", key.c_str(), value);
}

void
Digest::add(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    add(static_cast<std::int64_t>(bits));
}

void
Digest::add(std::int64_t x)
{
    std::uint64_t v = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
        h_ ^= v & 0xFFu;
        h_ *= 1099511628211ULL;
        v >>= 8;
    }
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
windowPercentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double last = static_cast<double>(xs.size() - 1);
    const auto rank = [&](double q) {
        return std::min(std::max(q, 0.0), 100.0) / 100.0 * last;
    };
    const std::size_t lo =
        static_cast<std::size_t>(std::floor(rank(p - 2.0)));
    const std::size_t hi =
        static_cast<std::size_t>(std::ceil(rank(p + 2.0)));
    double sum = 0.0;
    for (std::size_t i = lo; i <= hi; ++i)
        sum += xs[i];
    return sum / static_cast<double>(hi - lo + 1);
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

SpanLog::SpanLog() : origin_(Clock::now())
{
    spans_.reserve(4096);
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

int
SpanLog::open(const char *name, int parent)
{
    if (spans_.size() >= kMaxSpans) {
        unrecordedStart_.push_back(nowUs());
        return -1;
    }
    spans_.push_back(Span{name, nowUs(), -1.0, parent});
    return static_cast<int>(spans_.size() - 1);
}

double
SpanLog::close(int id)
{
    const double end = nowUs();
    if (id < 0) {
        const double start = unrecordedStart_.back();
        unrecordedStart_.pop_back();
        return (end - start) * 1e-6;
    }
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endUs = end;
    return (end - s.startUs) * 1e-6;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                     "\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i == 0 ? "" : ",", s.name, s.startUs,
                     s.endUs - s.startUs, i, s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

int
allowedCpuCount()
{
    int count = 0;
    allowedCpus(count);
    return std::max(count, 1);
}

void
printEnvironment(int workers)
{
    int allowed = 0;
    const std::string cpus = allowedCpus(allowed);
    const moentwine::HwCounters hw;
    info("env.nproc", std::to_string(std::thread::hardware_concurrency()));
    info("env.allowed_cpus", cpus + " (" + std::to_string(allowed) + ")");
#if defined(__clang__)
    info("env.compiler", std::string("clang ") + __VERSION__);
#else
    info("env.compiler", std::string("gcc ") + __VERSION__);
#endif
    info("env.build_type", PERFBENCH_BUILD_TYPE);
    info("env.workers", std::to_string(workers));
    info("hw.available", hw.available() ? "true" : "false");
}

} // namespace perfbench
