#include "workload/workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

void
AliasTable::build(const std::vector<double> &weights)
{
    const std::size_t n = weights.size();
    MOE_ASSERT(n > 0, "alias table over empty weights");
    double total = 0.0;
    for (const double w : weights) {
        MOE_ASSERT(w >= 0.0, "negative weight");
        total += w;
    }
    MOE_ASSERT(total > 0.0, "weights sum to zero");

    slots_.resize(n);
    small_.clear();
    large_.clear();
    const double scale = static_cast<double>(n) / total;
    for (std::size_t i = 0; i < n; ++i) {
        slots_[i] = {weights[i] * scale, i};
        (slots_[i].prob < 1.0 ? small_ : large_).push_back(i);
    }
    while (!small_.empty() && !large_.empty()) {
        const std::size_t s = small_.back();
        small_.pop_back();
        const std::size_t l = large_.back();
        large_.pop_back();
        slots_[s].alias = l;
        slots_[l].prob = (slots_[l].prob + slots_[s].prob) - 1.0;
        (slots_[l].prob < 1.0 ? small_ : large_).push_back(l);
    }
    // Floating-point residue: leftover slots carry full probability.
    // Zero-weight categories can never be left over (their mass is
    // exactly 0, so a large partner always remains), so this cannot
    // make an impossible category samplable.
    for (const std::size_t l : large_)
        slots_[l].prob = 1.0;
    for (const std::size_t s : small_)
        slots_[s].prob = 1.0;
}

void
AliasTable::sampleInto(Rng &rng, int draws, std::vector<int> &row) const
{
    MOE_ASSERT(draws >= 0, "negative draw count");
    const std::size_t n = slots_.size();
    MOE_ASSERT(n > 0, "sampling an unbuilt alias table");
    row.assign(n, 0);

    // Signed conversions throughout: scaled lies in [0, n], where the
    // int64_t conversions are exact single instructions (the unsigned
    // ones need a fix-up sequence), so indices and fractions are
    // bitwise those of the plain size_t arithmetic.
    const Slot *slots = slots_.data();
    const std::int64_t last = static_cast<std::int64_t>(n) - 1;
    const double width = static_cast<double>(n);
    int *counts = row.data();
    for (int d = 0; d < draws; ++d) {
        const double scaled = rng.uniform() * width;
        std::int64_t idx = static_cast<std::int64_t>(scaled);
        // u < 1, but u·n can round up to exactly n.
        idx = idx < last ? idx : last;
        const double frac = scaled - static_cast<double>(idx);
        const Slot &slot = slots[idx];
        // All ones when the draw lands on the alias part of the
        // column; a mask instead of a branch, which would mispredict
        // about every other draw under a skewed affinity.
        const std::size_t toAlias =
            0 - static_cast<std::size_t>(frac >= slot.prob);
        const auto i = static_cast<std::size_t>(idx);
        ++counts[i ^ ((i ^ slot.alias) & toAlias)];
    }
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    MOE_ASSERT(cfg.numExperts > 0, "numExperts must be positive");
    MOE_ASSERT(cfg.topK > 0 && cfg.topK <= cfg.numExperts,
               "topK must be in [1, numExperts]");
    MOE_ASSERT(cfg.mixPeriod > 0, "mixPeriod must be positive");
    MOE_ASSERT(cfg.aliasRebuildPeriod > 0,
               "aliasRebuildPeriod must be positive");
    MOE_ASSERT(cfg.aliasDriftTolerance >= 0.0,
               "aliasDriftTolerance must be non-negative");
}

std::vector<double>
WorkloadGenerator::mixtureWeights(int iteration) const
{
    std::vector<double> mix;
    mixtureWeightsInto(iteration, mix);
    return mix;
}

void
WorkloadGenerator::setScenarioMix(const std::vector<double> &weights)
{
    const std::size_t n = allScenarios().size();
    MOE_ASSERT(weights.size() == n,
               "scenario mix must cover every scenario");
    double total = 0.0;
    for (const double w : weights) {
        MOE_ASSERT(w >= 0.0, "negative scenario mix weight");
        total += w;
    }
    MOE_ASSERT(total > 0.0, "scenario mix weights sum to zero");
    externalMix_.assign(n, 0.0);
    for (std::size_t s = 0; s < n; ++s)
        externalMix_[s] = weights[s] / total;
    mixDirty_ = true;
}

void
WorkloadGenerator::clearScenarioMix()
{
    externalMix_.clear();
    mixDirty_ = true;
}

void
WorkloadGenerator::mixtureWeightsInto(int iteration,
                                      std::vector<double> &mix) const
{
    const auto &scenarios = allScenarios();
    if (!externalMix_.empty()) {
        mix = externalMix_;
        return;
    }
    mix.assign(scenarios.size(), 0.0);
    switch (cfg_.mode) {
      case GatingMode::Balanced:
        // Unused, but keep a defined value.
        std::fill(mix.begin(), mix.end(),
                  1.0 / static_cast<double>(scenarios.size()));
        break;
      case GatingMode::SingleScenario:
        for (std::size_t s = 0; s < scenarios.size(); ++s)
            mix[s] = scenarios[s] == cfg_.scenario ? 1.0 : 0.0;
        break;
      case GatingMode::MixedScenario:
        // Smooth cyclic drift: the shared raised-cosine rotation, one
        // full turn per mixPeriod iterations.
        rotatingScenarioMixInto(2.0 * M_PI *
                                    static_cast<double>(iteration) /
                                    static_cast<double>(cfg_.mixPeriod),
                                nullptr, mix);
        break;
    }
}

void
WorkloadGenerator::affinityInto(int iteration, int layer,
                                std::vector<double> &weights) const
{
    weights.assign(static_cast<std::size_t>(cfg_.numExperts), 0.0);
    if (cfg_.mode == GatingMode::Balanced) {
        std::fill(weights.begin(), weights.end(), 1.0);
    } else {
        const auto &scenarios = allScenarios();
        if (cachedLayer_ != layer) {
            scenarioBase_.clear();
            scenarioBase_.reserve(scenarios.size());
            for (const ScenarioKind s : scenarios)
                scenarioBase_.push_back(scenarioAffinity(
                    s, layer, cfg_.numExperts, cfg_.zipf, cfg_.seed));
            cachedLayer_ = layer;
        }
        const auto mix = mixtureWeights(iteration);
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            if (mix[s] <= 0.0)
                continue;
            const auto &base = scenarioBase_[s];
            for (std::size_t e = 0; e < weights.size(); ++e)
                weights[e] += mix[s] * base[e];
        }
    }
    double total = 0.0;
    for (double w : weights)
        total += w;
    MOE_ASSERT(total > 0.0, "degenerate affinity");
    for (double &w : weights)
        w /= total;
}

std::vector<double>
WorkloadGenerator::affinity(int iteration, int layer) const
{
    std::vector<double> weights;
    affinityInto(iteration, layer, weights);
    return weights;
}

std::vector<std::vector<int>>
WorkloadGenerator::sampleCounts(int iteration, int layer,
                                int tokensPerGroup, int dpGroups)
{
    std::vector<std::vector<int>> counts;
    sampleCountsInto(iteration, layer, tokensPerGroup, dpGroups, counts);
    return counts;
}

void
WorkloadGenerator::sampleCountsInto(int iteration, int layer,
                                    int tokensPerGroup, int dpGroups,
                                    std::vector<std::vector<int>> &counts)
{
    MOE_ASSERT(tokensPerGroup >= 0, "negative token count");
    MOE_ASSERT(dpGroups > 0, "dpGroups must be positive");

    // Rebuild the alias table only when the affinity changed enough to
    // matter: once per layer in the fixed regimes; under a drifting
    // mixture on a coarse cadence — at most every aliasRebuildPeriod
    // iterations, earlier when the mixture's L1 drift since the last
    // build exceeds aliasDriftTolerance. The mixture rotates once per
    // mixPeriod iterations, so between rebuilds the sampler draws from
    // a boundedly stale distribution (the balancers react on EMAs far
    // slower than that).
    // The mixture moves when MixedScenario rotates it, or when an
    // external mix is (or just stopped being) imposed; a dirty mix must
    // be drift-checked even at an unchanged iteration index.
    const bool drifting = cfg_.mode == GatingMode::MixedScenario ||
        !externalMix_.empty() || mixDirty_;
    bool rebuild = alias_.size() == 0 || layer != aliasLayer_;
    bool mixInScratch = false;
    if (!rebuild && drifting &&
        (iteration != aliasIteration_ || mixDirty_)) {
        // Non-monotonic iteration jumps (tests, replays) force a
        // rebuild rather than trusting a stale age computation.
        const bool aged = iteration < aliasIteration_ ||
            iteration - aliasIteration_ >= cfg_.aliasRebuildPeriod;
        if (aged) {
            rebuild = true;
        } else {
            mixtureWeightsInto(iteration, mixScratch_);
            mixInScratch = true;
            if (aliasMix_.size() != mixScratch_.size()) {
                // The last build ran in a fixed regime and recorded no
                // drift reference.
                rebuild = true;
            } else {
                double drift = 0.0;
                for (std::size_t s = 0; s < mixScratch_.size(); ++s)
                    drift += std::abs(mixScratch_[s] - aliasMix_[s]);
                rebuild = drift > cfg_.aliasDriftTolerance;
            }
        }
    }
    mixDirty_ = false;
    if (rebuild) {
        affinityInto(iteration, layer, affinityScratch_);
        alias_.build(affinityScratch_);
        aliasIteration_ = iteration;
        aliasLayer_ = layer;
        if (drifting) {
            // The drift branch already computed this iteration's
            // mixture; adopt it instead of recomputing.
            if (mixInScratch)
                aliasMix_.swap(mixScratch_);
            else
                mixtureWeightsInto(iteration, aliasMix_);
        }
    }

    counts.resize(static_cast<std::size_t>(dpGroups));
    const int draws = tokensPerGroup * cfg_.topK;
    for (auto &row : counts)
        alias_.sampleInto(rng_, draws, row);
}

std::vector<double>
WorkloadGenerator::expertLoads(const std::vector<std::vector<int>> &counts,
                               int numExperts)
{
    std::vector<double> loads;
    expertLoadsInto(counts, numExperts, loads);
    return loads;
}

void
WorkloadGenerator::expertLoadsInto(
    const std::vector<std::vector<int>> &counts, int numExperts,
    std::vector<double> &loads)
{
    loads.assign(static_cast<std::size_t>(numExperts), 0.0);
    for (const auto &row : counts) {
        MOE_ASSERT(row.size() == loads.size(),
                   "counts row width mismatch");
        for (std::size_t e = 0; e < row.size(); ++e)
            loads[e] += row[e];
    }
}

} // namespace moentwine
