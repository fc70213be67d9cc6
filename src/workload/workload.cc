#include "workload/workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

namespace {

// Zipf exponent of every scenario's expert popularity skew.
constexpr double kZipf = 1.0;

// MixedScenario sampler rebuild cadence: the drifting mixture moves
// slowly (one rotation per mixPeriod iterations), so the sampler
// tolerates a slightly stale table instead of paying the O(experts)
// rebuild every iteration. A rebuild is forced when kRebuildPeriod
// iterations passed since the last one, or earlier when the L1 distance
// of the scenario mixture weights (Σ|m_i − m_i'|, in [0, 2]) from the
// last build exceeds kDriftTolerance.
constexpr int kRebuildPeriod = 16;
constexpr double kDriftTolerance = 0.1;

// GatingSampler's head/tail switch: cuts at every kCutGrid-th of the
// ranks, and one head binomial costs about as much as
// kBinomialAliasDraws alias draws (both picked by timing the sampler
// per group at 128 and 256 experts and 128-8192 slots; BM_Gating
// covers the same range). At a cut the tail takes over once the next
// cut's ranks would place fewer slots per binomial than that, in
// expectation. Weights descend along the ranks, so later ranks would
// place fewer still.
constexpr int kCutGrid = 16;
constexpr double kBinomialAliasDraws = 16.0;

// Inversion covers n·q < 10; its search stops at kInversionMax, where
// the Binomial(n, q ≤ ½) tail beyond is below 1e-20, and redraws.
constexpr int kInversionMax = 64;

struct Reciprocals
{
    double of[kInversionMax + 1] = {};
    constexpr Reciprocals()
    {
        for (int k = 1; k <= kInversionMax; ++k)
            of[k] = 1.0 / k;
    }
};
constexpr Reciprocals kRecip{};

/** The kernels' parameters for success probability q ≤ ½. */
BinomialParam
reflect(double q)
{
    return {q, q / (1.0 - q), std::log1p(-q)};
}

/** Binomial(n, q) by sequential search from k = 0; n·q < 10. */
int
binomialInversion(Rng &rng, int n, const BinomialParam &bp)
{
    const double r = bp.r;
    const double g = r * (n + 1);
    const double f0 = std::exp(n * bp.log1mq); // P(0) = (1 − q)^n
    const int bound = std::min(n, kInversionMax);
    for (;;) {
        double u = rng.uniform();
        double f = f0;
        int k = 0;
        // P(k) = P(k − 1) · (n − k + 1)/k · q/(1 − q).
        while (u > f && k < bound) {
            u -= f;
            ++k;
            f *= g * kRecip.of[k] - r;
        }
        if (u <= f)
            return k;
    }
}

/** log(k!) − [(k + ½)·log(k + 1) − (k + 1) + ½·log(2π)]. */
double
stirlingTail(double k)
{
    static constexpr double kTable[10] = {
        0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
        0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
        0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
        0.00833056343336287};
    if (k <= 9.0)
        return kTable[static_cast<int>(k)];
    const double kp1sq = (k + 1.0) * (k + 1.0);
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) /
        (k + 1.0);
}

/**
 * Binomial(n, q) by BTRD, the transformed rejection with decomposition
 * of Hörmann, "The generation of binomial random variates", J. Stat.
 * Comput. Simul. 46 (1993); n·q ≥ 10, q ≤ ½. Step numbers follow the
 * paper.
 */
int
binomialBtrd(Rng &rng, int n, const BinomialParam &bp)
{
    const double q = bp.q;
    const double r = bp.r;
    const double nd = n;
    const double m = static_cast<int>((nd + 1.0) * q); // the mode
    const double nr = (nd + 1.0) * r;
    const double npq = nd * q * (1.0 - q);
    const double sqrtNpq = std::sqrt(npq);
    const double b = 1.15 + 2.53 * sqrtNpq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * q;
    const double c = nd * q + 0.5;
    const double alpha = (2.83 + 5.1 / b) * sqrtNpq;
    const double vr = 0.92 - 4.2 / b;
    const double urvr = 0.86 * vr;
    for (;;) {
        // 1: the triangle in the middle, accepted without a test.
        double v = rng.uniform();
        if (v <= urvr) {
            const double u = v / vr - 0.43;
            const double x = (2.0 * a / (0.5 - std::abs(u)) + b) * u + c;
            if (x >= 0.0 && x < nd + 1.0)
                return static_cast<int>(x);
            continue;
        }
        // 2: a point of the hat outside the triangle.
        double u;
        if (v >= vr) {
            u = rng.uniform() - 0.5;
        } else {
            u = v / vr - 0.93;
            u = (u < 0.0 ? -0.5 : 0.5) - u;
            v = rng.uniform() * vr;
        }
        // 3.0: the candidate k = ⌊x⌋, range-checked as a double (us can
        // be 0, and a huge or NaN x must not reach the int conversion,
        // which truncates, i.e. floors, the x ≥ 0 that pass).
        const double us = 0.5 - std::abs(u);
        const double x = (2.0 * a / us + b) * u + c;
        if (!(x >= 0.0 && x < nd + 1.0))
            continue;
        const int k = static_cast<int>(x);
        const double kd = k;
        v = v * alpha / (a / (us * us) + b);
        const double km = std::abs(kd - m);
        if (km <= 15.0) {
            // 3.1: f(k)/f(m) = Π (nr/i − r) by recursion, with the
            // factors' numerators nr − r·i and denominators i kept
            // apart, so the test takes no division.
            double num = 1.0;
            double den = 1.0;
            const double lo = std::min(kd, m);
            for (double i = lo + 1.0; i <= lo + km; i += 1.0) {
                num *= nr - r * i;
                den *= i;
            }
            if (kd > m ? v * den <= num : v * num <= den)
                return k;
            continue;
        }
        // 3.2: squeeze on log f(k)/f(m).
        v = std::log(v);
        const double rho = (km / npq) *
            (((km / 3.0 + 0.625) * km + 1.0 / 6.0) * km + 0.5);
        const double t = -km * km / (2.0 * npq);
        if (v < t - rho)
            return k;
        if (v > t + rho)
            continue;
        // 3.3: the exact test, with Stirling tails.
        const double nm = nd - m + 1.0;
        const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
            stirlingTail(m) + stirlingTail(nd - m);
        const double nk = nd - kd + 1.0;
        if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                (kd + 0.5) * std::log(nk * r / (kd + 1.0)) -
                stirlingTail(kd) - stirlingTail(nd - kd))
            return k;
    }
}

/** Binomial(n, q) for q ≤ ½. */
int
binomialReflected(Rng &rng, int n, const BinomialParam &bp)
{
    if (n == 0 || bp.q == 0.0)
        return 0;
    return n * bp.q < 10.0 ? binomialInversion(rng, n, bp)
                           : binomialBtrd(rng, n, bp);
}

/**
 * splitmix64 hash of (seed, iteration, layer); group g's gating stream
 * is seeded by splitmix64(key ^ g).
 */
uint64_t
gatingStreamKey(uint64_t seed, int iteration, int layer)
{
    uint64_t h = splitmix64(seed);
    for (const int part : {iteration, layer})
        h = splitmix64(h ^ static_cast<uint64_t>(part));
    return h;
}

} // namespace

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
    MOE_ASSERT(slots_.size() > 0, "sampling an unbuilt alias table");
    row.assign(slots_.size(), 0);
    addDraws(rng, draws, row.data());
}

void
AliasTable::addDraws(Rng &rng, int draws, int *counts) const
{
    MOE_ASSERT(draws >= 0, "negative draw count");
    const std::size_t n = slots_.size();
    MOE_ASSERT(n > 0, "sampling an unbuilt alias table");

    // Signed conversions throughout: scaled lies in [0, n], where the
    // int64_t conversions are exact single instructions (the unsigned
    // ones need a fix-up sequence), so indices and fractions are
    // bitwise those of the plain size_t arithmetic.
    const Slot *slots = slots_.data();
    const std::int64_t last = static_cast<std::int64_t>(n) - 1;
    const double width = static_cast<double>(n);
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

int
sampleBinomial(Rng &rng, int n, double p)
{
    MOE_ASSERT(n >= 0, "negative binomial trials");
    MOE_ASSERT(p >= 0.0 && p <= 1.0, "binomial probability out of [0, 1]");
    const bool flip = p > 0.5;
    const int k = binomialReflected(rng, n, reflect(flip ? 1.0 - p : p));
    return flip ? n - k : k;
}

void
GatingSampler::build(const std::vector<double> &weights)
{
    const std::size_t n = weights.size();
    MOE_ASSERT(n > 0, "gating sampler over empty weights");
    double total = 0.0;
    for (const double w : weights) {
        MOE_ASSERT(w >= 0.0, "negative weight");
        total += w;
    }
    MOE_ASSERT(total > 0.0, "weights sum to zero");
    weights_ = weights;
    cutStride_ = std::max(1, static_cast<int>(n) / kCutGrid);
    // Cut 0's ranks carry at most cutStride_·w_max of the mass, which
    // bounds its threshold from below without finding them.
    const double wMax = *std::max_element(weights.begin(), weights.end());
    aliasBelow_ = kBinomialAliasDraws * total / wMax;

    placed_.assign(n, 0);
    ranks_.resize(n);
    const std::size_t cuts =
        (n + static_cast<std::size_t>(cutStride_) - 1) /
        static_cast<std::size_t>(cutStride_);
    switchBelow_.resize(cuts);
    preparedCuts_ = 0;
    tails_.resize(cuts);
    tailBuilt_.assign(cuts, false);
}

void
GatingSampler::prepareCut(int cut)
{
    // The cut's ranks: the heaviest cutStride_ experts not yet ranked,
    // by weight, ties by id, kept in a small descending insertion
    // buffer over one pass in expert order.
    const std::size_t n = weights_.size();
    const auto stride = static_cast<std::size_t>(cutStride_);
    const std::size_t begin = static_cast<std::size_t>(cut) * stride;
    const std::size_t size = std::min(stride, n - begin);
    cutTop_.clear();
    for (std::size_t e = 0; e < n; ++e) {
        const double w = weights_[e];
        const bool full = cutTop_.size() == size;
        // Equal weights keep id order, so a later expert enters only
        // when strictly heavier than the buffer's lightest.
        if (placed_[e] || (full && w <= cutTop_.back().first))
            continue;
        if (full)
            cutTop_.pop_back();
        auto at = cutTop_.end();
        while (at != cutTop_.begin() && (at - 1)->first < w)
            --at;
        cutTop_.insert(at, {w, static_cast<int>(e)});
    }
    for (const auto &[w, e] : cutTop_)
        placed_[static_cast<std::size_t>(e)] = 1;

    // Conditional probability of each rank given the ranks before it,
    // p_i / Σ_{j≥i} p_j. The mass after the cut is summed in expert
    // order and the cut's own from its end, so p_i ≤ Σ_{j≥i} p_j holds
    // in floating point, and the last positive rank gets exactly 1: a
    // row's head walk always ends with every slot placed.
    double rest = 0.0;
    for (std::size_t e = 0; e < n; ++e)
        if (!placed_[e])
            rest += weights_[e];
    double cutMass = 0.0;
    for (std::size_t j = size; j-- > 0;) {
        const auto [w, e] = cutTop_[j];
        rest += w;
        cutMass += w;
        const double p = rest > 0.0 ? w / rest : 0.0;
        const bool flip = p > 0.5;
        ranks_[begin + j] = {reflect(flip ? 1.0 - p : p), e, flip};
    }
    // Switch here when left·cutMass/rest, the slots the cut's ranks
    // would place, is at most kBinomialAliasDraws per rank. A zero-mass
    // cut is never reached with slots left.
    switchBelow_[static_cast<std::size_t>(cut)] = cutMass > 0.0
        ? kBinomialAliasDraws * static_cast<double>(size) * rest / cutMass
        : 0.0;
    ++preparedCuts_;
}

const AliasTable &
GatingSampler::tail(int cut)
{
    const auto c = static_cast<std::size_t>(cut);
    if (!tailBuilt_[c]) {
        if (cut == 0) {
            tails_[0].build(weights_);
        } else {
            tailWeights_ = weights_;
            for (int i = 0; i < cut * cutStride_; ++i)
                tailWeights_[static_cast<std::size_t>(
                    ranks_[static_cast<std::size_t>(i)].expert)] = 0.0;
            tails_[c].build(tailWeights_);
        }
        tailBuilt_[c] = true;
    }
    return tails_[c];
}

void
GatingSampler::sampleRowsInto(Rng *rngs, std::vector<int> *rows,
                              int groups, int slots)
{
    MOE_ASSERT(slots >= 0, "negative slot count");
    MOE_ASSERT(groups >= 0, "negative row count");
    const int n = static_cast<int>(weights_.size());
    MOE_ASSERT(n > 0, "sampling an unbuilt gating sampler");
    if (slots <= aliasBelow_) {
        // Cut 0: the plain alias table over every expert.
        const AliasTable &table = tail(0);
        for (int g = 0; g < groups; ++g) {
            rows[g].assign(weights_.size(), 0);
            table.addDraws(rngs[g], slots, rows[g].data());
        }
        return;
    }
    // walkers_[0, live) are the rows still in the head, in row order.
    walkers_.resize(static_cast<std::size_t>(groups));
    Walker *walkers = walkers_.data();
    for (int g = 0; g < groups; ++g) {
        rows[g].assign(weights_.size(), 0);
        walkers[g] = {&rngs[g], rows[g].data(), slots};
    }
    int live = groups;
    for (int cut = 0; live > 0; ++cut) {
        // Unreachable while a row has slots left: the last positive
        // rank's conditional probability is exactly 1.
        MOE_ASSERT(cut < static_cast<int>(switchBelow_.size()),
                   "gating head walked past the last expert");
        if (cut == preparedCuts_)
            prepareCut(cut);
        // Rows with few enough slots left leave the head here. Ranks
        // before the cut are zero in its tail table, so its draws land
        // only on experts the head has not placed.
        const double switchBelow =
            switchBelow_[static_cast<std::size_t>(cut)];
        int kept = 0;
        for (int j = 0; j < live; ++j) {
            const Walker w = walkers[j];
            if (w.left <= switchBelow)
                tail(cut).addDraws(*w.rng, w.left, w.row);
            else
                walkers[kept++] = w;
        }
        live = kept;
        const int end = std::min(n, (cut + 1) * cutStride_);
        for (int i = cut * cutStride_; i < end && live > 0; ++i) {
            // One binomial per row; the rows' draws are independent.
            const Rank rank = ranks_[static_cast<std::size_t>(i)];
            kept = 0;
            for (int j = 0; j < live; ++j) {
                Walker w = walkers[j];
                const int k = binomialReflected(*w.rng, w.left,
                                                rank.binomial);
                const int placed = rank.flip ? w.left - k : k;
                w.row[rank.expert] = placed;
                w.left -= placed;
                if (w.left > 0)
                    walkers[kept++] = w;
            }
            live = kept;
        }
    }
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig &cfg)
    : cfg_(cfg)
{
    MOE_ASSERT(cfg.numExperts > 0, "numExperts must be positive");
    MOE_ASSERT(cfg.topK > 0 && cfg.topK <= cfg.numExperts,
               "topK must be in [1, numExperts]");
    MOE_ASSERT(cfg.mixPeriod > 0, "mixPeriod must be positive");
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
                                mix);
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
                    s, layer, cfg_.numExperts, kZipf, cfg_.seed));
            cachedLayer_ = layer;
        }
        mixtureWeightsInto(iteration, affinityMix_);
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            if (affinityMix_[s] <= 0.0)
                continue;
            const auto &base = scenarioBase_[s];
            for (std::size_t e = 0; e < weights.size(); ++e)
                weights[e] += affinityMix_[s] * base[e];
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

    // Rebuild the sampler only when the affinity changed enough to
    // matter: once per layer in the fixed regimes; under a drifting
    // mixture on a coarse cadence — at most every kRebuildPeriod
    // iterations, earlier when the mixture's L1 drift since the last
    // build exceeds kDriftTolerance. The mixture rotates once per
    // mixPeriod iterations, so between rebuilds the sampler draws from
    // a boundedly stale distribution (the balancers react on EMAs far
    // slower than that).
    // The mixture moves when MixedScenario rotates it, or when an
    // external mix is imposed; a newly set mix must be drift-checked
    // even at an unchanged iteration index.
    const bool drifting = cfg_.mode == GatingMode::MixedScenario ||
        !externalMix_.empty();
    bool rebuild = sampler_.size() == 0 || layer != builtLayer_;
    bool mixInScratch = false;
    if (!rebuild && drifting &&
        (iteration != builtIteration_ || mixDirty_)) {
        // Non-monotonic iteration jumps (tests, replays) force a
        // rebuild rather than trusting a stale age computation.
        const bool aged = iteration < builtIteration_ ||
            iteration - builtIteration_ >= kRebuildPeriod;
        if (aged) {
            rebuild = true;
        } else {
            mixtureWeightsInto(iteration, mixScratch_);
            mixInScratch = true;
            if (builtMix_.size() != mixScratch_.size()) {
                // The last build ran in a fixed regime and recorded no
                // drift reference.
                rebuild = true;
            } else {
                double drift = 0.0;
                for (std::size_t s = 0; s < mixScratch_.size(); ++s)
                    drift += std::abs(mixScratch_[s] - builtMix_[s]);
                rebuild = drift > kDriftTolerance;
            }
        }
    }
    mixDirty_ = false;
    if (rebuild) {
        affinityInto(iteration, layer, affinityScratch_);
        sampler_.build(affinityScratch_);
        builtIteration_ = iteration;
        builtLayer_ = layer;
        if (drifting) {
            // The drift branch already computed this iteration's
            // mixture; adopt it instead of recomputing.
            if (mixInScratch)
                builtMix_.swap(mixScratch_);
            else
                mixtureWeightsInto(iteration, builtMix_);
        }
    }

    counts.resize(static_cast<std::size_t>(dpGroups));
    const int slots = tokensPerGroup * cfg_.topK;
    const uint64_t key = gatingStreamKey(cfg_.seed, iteration, layer);
    rngs_.clear();
    for (int g = 0; g < dpGroups; ++g)
        rngs_.emplace_back(splitmix64(key ^ static_cast<uint64_t>(g)));
    sampler_.sampleRowsInto(rngs_.data(), counts.data(), dpGroups, slots);
}

std::vector<double>
WorkloadGenerator::expertLoads(const std::vector<std::vector<int>> &counts,
                               int numExperts)
{
    std::vector<double> loads(static_cast<std::size_t>(numExperts), 0.0);
    for (const auto &row : counts) {
        MOE_ASSERT(row.size() == loads.size(),
                   "counts row width mismatch");
        for (std::size_t e = 0; e < row.size(); ++e)
            loads[e] += row[e];
    }
    return loads;
}

} // namespace moentwine
