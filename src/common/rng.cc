#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace moentwine {

namespace {

/** splitmix64 step, used only for seeding the main state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    MOE_ASSERT(n > 0, "Rng::below requires n > 0");
    // Rejection-free modulo is fine here: n is tiny relative to 2^64 in
    // all simulator uses, so bias is negligible (< 2^-40).
    return next() % n;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    MOE_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
    return lo + static_cast<int64_t>(
        below(static_cast<uint64_t>(hi - lo + 1)));
}

double
Rng::normal()
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return spareNormal_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 1e-300) { // guard against log(0)
        u1 = uniform();
    }
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    haveSpareNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    MOE_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = uniform();
    while (u <= 1e-300) {
        u = uniform();
    }
    return -std::log(u) / rate;
}

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        MOE_ASSERT(w >= 0.0, "weights must be non-negative");
        total += w;
    }
    MOE_ASSERT(total > 0.0, "weightedIndex requires a positive weight sum");
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    return weights.size() - 1; // numeric edge: landed exactly on total
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = below(i);
        std::swap(p[i - 1], p[j]);
    }
    return p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace moentwine
