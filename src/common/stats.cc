#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

void
Summary::add(double x)
{
    samples_.push_back(x);
    sum_ += x;
}

double
Summary::mean() const
{
    MOE_ASSERT(!samples_.empty(), "mean of empty Summary");
    return sum_ / static_cast<double>(samples_.size());
}

double
Summary::min() const
{
    MOE_ASSERT(!samples_.empty(), "min of empty Summary");
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Summary::max() const
{
    MOE_ASSERT(!samples_.empty(), "max of empty Summary");
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Summary::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : samples_)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double
Summary::percentile(double p) const
{
    MOE_ASSERT(!samples_.empty(), "percentile of empty Summary");
    MOE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of [0, 100]");
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
meanOf(const std::vector<double> &xs)
{
    MOE_ASSERT(!xs.empty(), "meanOf empty vector");
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
maxOf(const std::vector<double> &xs)
{
    MOE_ASSERT(!xs.empty(), "maxOf empty vector");
    return *std::max_element(xs.begin(), xs.end());
}

double
imbalanceDegree(const std::vector<double> &loads)
{
    const double mu = meanOf(loads);
    MOE_ASSERT(mu > 0.0, "imbalanceDegree requires a positive mean load");
    return (maxOf(loads) - mu) / mu;
}

} // namespace moentwine
