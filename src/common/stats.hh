/**
 * @file
 * Lightweight statistics helpers used by the engine and benches:
 * running summaries (min/max/mean/stddev) and percentiles over retained
 * samples.
 */

#ifndef MOENTWINE_COMMON_STATS_HH
#define MOENTWINE_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace moentwine {

/**
 * Running summary of a stream of samples. Retains all samples so exact
 * percentiles are available; simulator sample counts are small (at most
 * a few hundred thousand doubles).
 */
class Summary
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added so far. */
    std::size_t count() const { return samples_.size(); }

    /** Sum of all samples (0 when empty). */
    double sum() const { return sum_; }

    /** Arithmetic mean; panics when empty. */
    double mean() const;

    /** Smallest sample; panics when empty. */
    double min() const;

    /** Largest sample; panics when empty. */
    double max() const;

    /** Sample standard deviation (0 for fewer than two samples). */
    double stddev() const;

    /**
     * Exact percentile with linear interpolation.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

    /** All retained samples in insertion order. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    double sum_ = 0.0;
};

/** Mean of a vector; panics when empty. */
double meanOf(const std::vector<double> &xs);

/** Maximum of a vector; panics when empty. */
double maxOf(const std::vector<double> &xs);

/**
 * Imbalance degree of a load vector, as used in Eq.(2) of the paper:
 * (max - mean) / mean. Zero for a perfectly balanced vector; panics on
 * an empty vector or a zero mean.
 */
double imbalanceDegree(const std::vector<double> &loads);

} // namespace moentwine

#endif // MOENTWINE_COMMON_STATS_HH
