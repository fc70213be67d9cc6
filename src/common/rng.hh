/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * Every stochastic component in MoEntwine (gating, workload generation,
 * arrival mixing) draws from an explicitly seeded Rng so that benchmark
 * output is bit-identical across runs and platforms. The generator is
 * xoshiro256** seeded via splitmix64, which is fast, high quality, and
 * trivially portable — we intentionally avoid std::mt19937 plus
 * std::*_distribution because their outputs are not guaranteed to be
 * identical across standard library implementations.
 */

#ifndef MOENTWINE_COMMON_RNG_HH
#define MOENTWINE_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace moentwine {

/**
 * Deterministic random number generator (xoshiro256** / splitmix64 seed).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. Inline: gating draws it per token. */
    uint64_t next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1). They fit int64_t, whose
        // conversion is one instruction (uint64_t needs a fix-up
        // sequence) and exact, so the value is unchanged.
        return static_cast<double>(static_cast<int64_t>(next() >> 11)) *
            0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n), n > 0. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Standard normal variate (Box–Muller, deterministic pairing). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential variate with the given rate (lambda). */
    double exponential(double rate);

    /**
     * Sample an index from an unnormalised non-negative weight vector.
     * @param weights Unnormalised weights; at least one must be positive.
     * @return Sampled index in [0, weights.size()).
     */
    std::size_t weightedIndex(const std::vector<double> &weights);

    /** Fisher–Yates shuffle of an index permutation [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

    /** Fork a child generator with an independent, reproducible stream. */
    Rng fork();

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace moentwine

#endif // MOENTWINE_COMMON_RNG_HH
