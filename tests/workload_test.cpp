/**
 * @file
 * Tests for the scenario-conditioned workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>

#include "digest.hh"
#include "workload/scenario.hh"
#include "workload/workload.hh"

using namespace moentwine;

namespace {

/**
 * Reference multinomial sampler: CDF binary search, O(draws · log n).
 * Slower than the alias kernel and on a different stream, but simple
 * enough to be obviously right; the kernel's per-expert frequencies
 * are compared against it.
 */
std::vector<int>
sampleMultinomial(Rng &rng, const std::vector<double> &weights, int draws)
{
    std::vector<double> cdf(weights.size());
    double total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        total += weights[i];
        cdf[i] = total;
    }
    std::vector<int> counts(weights.size(), 0);
    for (int d = 0; d < draws; ++d) {
        const double r = rng.uniform() * total;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        const auto idx = std::min<std::ptrdiff_t>(
            it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1);
        ++counts[static_cast<std::size_t>(idx)];
    }
    return counts;
}

/**
 * The per-slot alias sampler GatingSampler replaced, kept as the
 * distributional reference: one group's row is tokens × top-k alias
 * draws over the affinity.
 */
std::vector<int>
referenceGatingRow(const std::vector<double> &affinity, int slots,
                   Rng &rng)
{
    AliasTable table;
    table.build(affinity);
    std::vector<int> row;
    table.sampleInto(rng, slots, row);
    return row;
}

/**
 * Upper 1 − α quantile of χ²(df) by the Wilson–Hilferty cube, for the
 * standard normal quantile @p z of α; within 1% of the exact quantile
 * for df ≥ 3 at the z used here.
 */
double
chiSquareQuantile(int df, double z)
{
    const double c = 2.0 / (9.0 * df);
    const double t = 1.0 - c + z * std::sqrt(c);
    return df * t * t * t;
}

// Normal quantile of α = 1e-5: fixed-seed tests, so a valid one fails
// with probability 1e-5 at the time its seeds are chosen, then never.
constexpr double kZ = 4.265;

/**
 * G statistic of homogeneity for a 2 × K table of counts (rows @p a and
 * @p b), with its degrees of freedom. Columns are pooled left to right
 * until each pooled column expects at least 5 in both rows; empty
 * columns drop out.
 */
std::pair<double, int>
gHomogeneity(const std::vector<double> &a, const std::vector<double> &b)
{
    const double ta = std::accumulate(a.begin(), a.end(), 0.0);
    const double tb = std::accumulate(b.begin(), b.end(), 0.0);
    const double fa = ta / (ta + tb);
    std::vector<std::pair<double, double>> pooled;
    double pa = 0.0;
    double pb = 0.0;
    for (std::size_t j = 0; j < a.size(); ++j) {
        pa += a[j];
        pb += b[j];
        const double col = pa + pb;
        if (col * std::min(fa, 1.0 - fa) >= 5.0) {
            pooled.emplace_back(pa, pb);
            pa = pb = 0.0;
        }
    }
    if (pa + pb > 0.0) {
        if (pooled.empty()) {
            pooled.emplace_back(pa, pb);
        } else {
            pooled.back().first += pa;
            pooled.back().second += pb;
        }
    }
    double g = 0.0;
    for (const auto &[oa, ob] : pooled) {
        const double col = oa + ob;
        if (oa > 0.0)
            g += oa * std::log(oa / (col * fa));
        if (ob > 0.0)
            g += ob * std::log(ob / (col * (1.0 - fa)));
    }
    return {2.0 * g, static_cast<int>(pooled.size()) - 1};
}

/** Exact Binomial(n, p) pmf over k = 0..n. */
std::vector<double>
binomialPmf(int n, double p)
{
    std::vector<double> pmf(static_cast<std::size_t>(n) + 1, 0.0);
    for (int k = 0; k <= n; ++k) {
        if ((p == 0.0 && k > 0) || (p == 1.0 && k < n))
            continue;
        double lp = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
            std::lgamma(n - k + 1.0);
        if (k > 0)
            lp += k * std::log(p);
        if (k < n)
            lp += (n - k) * std::log1p(-p);
        pmf[static_cast<std::size_t>(k)] = std::exp(lp);
    }
    return pmf;
}

/**
 * Goodness-of-fit G statistic of observed @p counts against expected
 * @p expect (same total), bins pooled left to right until each expects
 * at least 5; returns (G, df).
 */
std::pair<double, int>
gFit(const std::vector<double> &counts, const std::vector<double> &expect)
{
    std::vector<std::pair<double, double>> pooled;
    double o = 0.0;
    double e = 0.0;
    for (std::size_t k = 0; k < counts.size(); ++k) {
        o += counts[k];
        e += expect[k];
        if (e >= 5.0) {
            pooled.emplace_back(o, e);
            o = e = 0.0;
        }
    }
    if (!pooled.empty()) {
        pooled.back().first += o;
        pooled.back().second += e;
    } else {
        pooled.emplace_back(o, e);
    }
    double g = 0.0;
    for (const auto &[obs, exp] : pooled)
        if (obs > 0.0)
            g += obs * std::log(obs / exp);
    return {2.0 * g, static_cast<int>(pooled.size()) - 1};
}

/** Digest of 64 sampleCountsInto() calls with varying token counts. */
std::uint64_t
gatingDigest(GatingMode mode, int experts)
{
    WorkloadConfig cfg;
    cfg.numExperts = experts;
    cfg.topK = 8;
    cfg.mode = mode;
    cfg.scenario = ScenarioKind::Math;
    cfg.seed = 42;
    WorkloadGenerator gen(cfg);
    std::vector<std::vector<int>> counts;
    std::uint64_t h = digest::kOffset;
    for (int it = 0; it < 64; ++it) {
        gen.sampleCountsInto(it, 0, 1 + (it * 37) % 301, 4, counts);
        for (const auto &row : counts)
            for (const int c : row)
                digest::mixInt(h, c);
    }
    return h;
}

} // namespace

// ------------------------------------------------------- scenarios ----

TEST(Scenario, NamesAndOrder)
{
    const auto all = allScenarios();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(scenarioName(all[0]), "Chat");
    EXPECT_EQ(scenarioName(all[1]), "Coding");
    EXPECT_EQ(scenarioName(all[2]), "Math");
    EXPECT_EQ(scenarioName(all[3]), "Privacy");
}

TEST(Scenario, AffinityIsDeterministic)
{
    const auto a = scenarioAffinity(ScenarioKind::Math, 3, 64, 1.0, 42);
    const auto b = scenarioAffinity(ScenarioKind::Math, 3, 64, 1.0, 42);
    EXPECT_EQ(a, b);
}

TEST(Scenario, DifferentScenariosDiffer)
{
    const auto a = scenarioAffinity(ScenarioKind::Math, 0, 64, 1.0, 42);
    const auto b = scenarioAffinity(ScenarioKind::Chat, 0, 64, 1.0, 42);
    EXPECT_NE(a, b);
}

TEST(Scenario, DifferentLayersDiffer)
{
    const auto a = scenarioAffinity(ScenarioKind::Math, 0, 64, 1.0, 42);
    const auto b = scenarioAffinity(ScenarioKind::Math, 1, 64, 1.0, 42);
    EXPECT_NE(a, b);
}

TEST(Scenario, ZipfZeroIsUniform)
{
    const auto w = scenarioAffinity(ScenarioKind::Chat, 0, 16, 0.0, 1);
    for (const double x : w)
        EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Scenario, ZipfSkewsWeights)
{
    const auto w = scenarioAffinity(ScenarioKind::Chat, 0, 64, 1.2, 1);
    const double maxW = *std::max_element(w.begin(), w.end());
    const double minW = *std::min_element(w.begin(), w.end());
    EXPECT_GT(maxW / minW, 10.0);
}

// ------------------------------------------- reference multinomial ----

TEST(Multinomial, CountsSumToDraws)
{
    Rng rng(5);
    const auto counts = sampleMultinomial(rng, {1.0, 2.0, 3.0}, 600);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 600);
}

TEST(Multinomial, ZeroWeightNeverSampled)
{
    Rng rng(6);
    const auto counts =
        sampleMultinomial(rng, {1.0, 0.0, 1.0}, 10000);
    EXPECT_EQ(counts[1], 0);
}

TEST(Multinomial, ProportionsConverge)
{
    Rng rng(7);
    const auto counts = sampleMultinomial(rng, {1.0, 3.0}, 100000);
    EXPECT_NEAR(counts[1] / 100000.0, 0.75, 0.01);
}

TEST(Multinomial, ZeroDraws)
{
    Rng rng(8);
    const auto counts = sampleMultinomial(rng, {1.0, 1.0}, 0);
    EXPECT_EQ(counts[0] + counts[1], 0);
}

// --------------------------------------------------- gating sampler ----

// Counts pinned from the head-binomial / tail-alias sampler on the
// keyed per-group streams. Groups of 8 to 2408 slots cover both the
// cut-0 alias path and head walks that switch to a tail; 96 experts
// covers the non-power-of-two width, where u·n can round up to n, and
// a cut stride of 6 ranks.
TEST(GatingSampler, PinnedBalancedStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 128),
              0xce8e400727fefac9ULL);
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 256),
              0x2e6106952fb74751ULL);
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 96),
              0xfa62a615e3372e1dULL);
}

TEST(GatingSampler, PinnedSingleScenarioStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 128),
              0xbf0dd5ffee73237dULL);
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 256),
              0x28f2cb889c51016dULL);
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 96),
              0x3a38dee8df555a27ULL);
}

TEST(GatingSampler, PinnedMixedScenarioStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 128),
              0xb6bcdfd0bc558413ULL);
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 256),
              0x83407a5d7273c8c7ULL);
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 96),
              0xfe7d4a04577287e7ULL);
}

// Both binomial kernels against the exact pmf: inversion (n·q < 10),
// BTRD on either side of its 15-from-the-mode recursion and through
// the squeeze and final test at large n·p·q, the n·q = 10 boundary,
// and p > ½ by reflection into each kernel.
TEST(GatingSampler, BinomialMatchesExactPmf)
{
    constexpr int kSamples = 40000;
    const std::vector<std::pair<int, double>> cases{
        {1, 0.3},    {20, 0.02},     {64, 0.1},     {300, 0.01},
        {100, 0.0999}, {100, 0.1},   {40, 0.25},    {200, 0.3},
        {3000, 0.05}, {100000, 0.3}, {50, 0.9},     {90, 0.95},
        {1000, 0.7},  {5000, 0.5}};
    std::uint64_t seed = 100;
    for (const auto &[n, p] : cases) {
        Rng rng(seed++);
        std::vector<double> hist(static_cast<std::size_t>(n) + 1, 0.0);
        for (int i = 0; i < kSamples; ++i) {
            const int k = sampleBinomial(rng, n, p);
            ASSERT_GE(k, 0);
            ASSERT_LE(k, n);
            hist[static_cast<std::size_t>(k)] += 1.0;
        }
        auto expect = binomialPmf(n, p);
        for (double &e : expect)
            e *= kSamples;
        const auto [g, df] = gFit(hist, expect);
        ASSERT_GT(df, 0) << "n " << n << " p " << p;
        EXPECT_LT(g, chiSquareQuantile(df, kZ))
            << "n " << n << " p " << p << " df " << df;
    }
}

// n = 0, p = 0 and p = 1 are certain, and draw no uniforms.
TEST(GatingSampler, DegenerateBinomialsDrawNothing)
{
    const std::vector<std::tuple<int, double, int>> cases{
        {0, 0.3, 0}, {0, 0.9, 0}, {17, 0.0, 0}, {17, 1.0, 17},
        {0, 0.0, 0}, {0, 1.0, 0}};
    for (const auto &[n, p, want] : cases) {
        Rng rng(9);
        Rng reference(9);
        EXPECT_EQ(sampleBinomial(rng, n, p), want) << n << " " << p;
        EXPECT_EQ(rng.next(), reference.next()) << n << " " << p;
    }
}

// Per-expert means and variances of the sampler's rows against the
// multinomial's n·p and n·p·(1 − p), at slot counts that stay on the
// cut-0 alias table and that switch to a tail mid-walk; the sparse
// weights (5 of 96 experts) also take the cut-0 tail after sorting the
// head, and walk to their last positive expert. Every row sums exactly
// and zero-weight experts stay at 0.
TEST(GatingSampler, MomentsMatchMultinomial)
{
    constexpr int kRows = 3000;
    std::vector<std::vector<double>> weightSets;
    for (const int experts : {96, 128, 256}) {
        weightSets.push_back(
            scenarioAffinity(ScenarioKind::Math, 0, experts, 1.0, 11));
        for (int e = 0; e < experts; e += 7)
            weightSets.back()[static_cast<std::size_t>(e)] = 0.0;
    }
    weightSets.emplace_back(96, 0.0);
    for (const auto &[e, w] : {std::pair<int, double>{3, 5.0},
                               {17, 1.0}, {40, 0.5}, {41, 0.5}, {90, 3.0}})
        weightSets.back()[static_cast<std::size_t>(e)] = w;
    for (const auto &weights : weightSets) {
        const int experts = static_cast<int>(weights.size());
        const double total =
            std::accumulate(weights.begin(), weights.end(), 0.0);
        GatingSampler sampler;
        sampler.build(weights);
        for (const int slots : {64, 3072, 8192}) {
            std::vector<double> sum(weights.size(), 0.0);
            std::vector<double> sumSq(weights.size(), 0.0);
            std::vector<int> row;
            for (int i = 0; i < kRows; ++i) {
                Rng rng(static_cast<std::uint64_t>(slots) * 7919 + i);
                sampler.sampleRowsInto(&rng, &row, 1, slots);
                ASSERT_EQ(row.size(), weights.size());
                ASSERT_EQ(std::accumulate(row.begin(), row.end(), 0),
                          slots);
                for (std::size_t e = 0; e < row.size(); ++e) {
                    sum[e] += row[e];
                    sumSq[e] += double(row[e]) * row[e];
                }
            }
            for (std::size_t e = 0; e < weights.size(); ++e) {
                const double p = weights[e] / total;
                if (p == 0.0) {
                    EXPECT_EQ(sum[e], 0.0) << "expert " << e;
                    continue;
                }
                const double n = slots;
                const double var = n * p * (1.0 - p);
                // Fourth central moment of Binomial(n, p).
                const double mu4 =
                    var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
                const double mean = sum[e] / kRows;
                const double sampleVar =
                    (sumSq[e] - kRows * mean * mean) / (kRows - 1);
                EXPECT_NEAR(mean, n * p, 5.0 * std::sqrt(var / kRows))
                    << experts << " experts, " << slots << " slots, e "
                    << e;
                EXPECT_NEAR(sampleVar, var,
                            5.0 * std::sqrt((mu4 - var * var) / kRows) +
                                1e-9)
                    << experts << " experts, " << slots << " slots, e "
                    << e;
            }
        }
    }
}

// The generator against the per-slot alias sampler it replaced, over
// many keyed streams (one per iteration) at 1, 16, 128 and 1024 tokens:
// G-tests of homogeneity on the pooled per-expert counts (the mean
// vector) and on the histograms of the hottest and a middle-ranked
// expert's per-row count (the shape of each marginal). The affinity is
// held fixed: one scenario, or an imposed mixture of all four.
TEST(GatingSampler, MatchesPerSlotAliasSampler)
{
    const std::vector<std::pair<int, int>> runs{
        {1, 20000}, {16, 4000}, {128, 1500}, {1024, 400}};
    for (const bool mixed : {false, true}) {
        for (const auto &[tokens, iterations] : runs) {
            WorkloadConfig cfg;
            cfg.numExperts = 128;
            cfg.topK = 8;
            cfg.mode = GatingMode::SingleScenario;
            WorkloadGenerator gen(cfg);
            if (mixed)
                gen.setScenarioMix({1.0, 2.0, 3.0, 4.0});
            const auto affinity = gen.affinity(0, 0);
            std::vector<std::size_t> byWeight(affinity.size());
            std::iota(byWeight.begin(), byWeight.end(), std::size_t(0));
            std::stable_sort(byWeight.begin(), byWeight.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return affinity[a] > affinity[b];
                             });
            const std::size_t watched[] = {byWeight[0], byWeight[40]};
            const int slots = tokens * cfg.topK;
            const auto bins = static_cast<std::size_t>(slots) + 1;

            std::vector<double> pooledNew(affinity.size(), 0.0);
            std::vector<double> pooledRef(affinity.size(), 0.0);
            std::vector<std::vector<double>> histNew(
                2, std::vector<double>(bins, 0.0));
            auto histRef = histNew;
            Rng refRng(777);
            std::vector<std::vector<int>> counts;
            for (int it = 0; it < iterations; ++it) {
                gen.sampleCountsInto(it, 0, tokens, 1, counts);
                const auto &rowNew = counts[0];
                const auto rowRef =
                    referenceGatingRow(affinity, slots, refRng);
                for (std::size_t e = 0; e < affinity.size(); ++e) {
                    pooledNew[e] += rowNew[e];
                    pooledRef[e] += rowRef[e];
                }
                for (int w = 0; w < 2; ++w) {
                    histNew[std::size_t(w)][std::size_t(
                        rowNew[watched[w]])] += 1.0;
                    histRef[std::size_t(w)][std::size_t(
                        rowRef[watched[w]])] += 1.0;
                }
            }
            const auto [g, df] = gHomogeneity(pooledNew, pooledRef);
            EXPECT_LT(g, chiSquareQuantile(df, kZ))
                << "pooled, " << tokens << " tokens, mixed " << mixed
                << ", df " << df;
            for (int w = 0; w < 2; ++w) {
                const auto [gw, dfw] =
                    gHomogeneity(histNew[std::size_t(w)],
                                 histRef[std::size_t(w)]);
                if (dfw < 1)
                    continue;
                EXPECT_LT(gw, chiSquareQuantile(dfw, kZ))
                    << "expert rank " << (w == 0 ? 0 : 40) << ", "
                    << tokens << " tokens, mixed " << mixed << ", df "
                    << dfw;
            }
        }
    }
}

// Each group draws from its own keyed stream: an iteration sampled by
// a fresh generator equals the same iteration inside a run (the fixed
// regimes build once, so the rebuild state agrees), and row g does not
// depend on how many groups the rank-major walk interleaves. At 1024
// tokens the scenario-driven rows leave the head at different cuts
// (one row can also walk to its last rank), and Balanced rows never
// leave it.
TEST(GatingSampler, KeyedStreamIsPerIterationAndGroup)
{
    for (const GatingMode mode :
         {GatingMode::Balanced, GatingMode::SingleScenario}) {
        WorkloadConfig cfg;
        cfg.numExperts = 128;
        cfg.topK = 8;
        cfg.mode = mode;
        WorkloadGenerator run(cfg);
        std::vector<std::vector<int>> inRun;
        for (int it = 0; it <= 37; ++it)
            run.sampleCountsInto(it, 0, 1 + (it * 53) % 400, 4, inRun);
        WorkloadGenerator alone(cfg);
        EXPECT_EQ(alone.sampleCounts(37, 0, 1 + (37 * 53) % 400, 4),
                  inRun);
    }
    for (const GatingMode mode :
         {GatingMode::Balanced, GatingMode::SingleScenario,
          GatingMode::MixedScenario}) {
        for (const int experts : {128, 256}) {
            WorkloadConfig cfg;
            cfg.numExperts = experts;
            cfg.topK = 8;
            cfg.mode = mode;
            for (const auto &[iteration, tokens] :
                 {std::pair<int, int>{5, 300}, {2, 1024}, {3, 1024}}) {
                WorkloadGenerator wideGen(cfg);
                const auto wide =
                    wideGen.sampleCounts(iteration, 0, tokens, 8);
                EXPECT_NE(wide[0], wide[1]);
                for (const int dp : {1, 4}) {
                    WorkloadGenerator gen(cfg);
                    const auto rows =
                        gen.sampleCounts(iteration, 0, tokens, dp);
                    ASSERT_EQ(rows.size(), static_cast<std::size_t>(dp));
                    for (int g = 0; g < dp; ++g)
                        EXPECT_EQ(rows[static_cast<std::size_t>(g)],
                                  wide[static_cast<std::size_t>(g)])
                            << "mode " << static_cast<int>(mode) << ", "
                            << experts << " experts, " << tokens
                            << " tokens, dp " << dp << ", row " << g;
                }
            }
        }
    }
}

// A sampler's rows depend only on the weights of its last build and on
// the streams, never on what earlier builds ranked or tabled: build()
// must reset the lazily prepared cuts and tail tables. Rebuild one
// sampler over drifting weights with exact ties (a block of equal
// weights that straddles the cuts) and a zero weight, and compare its
// rows with a fresh sampler's on the same weights. With these weights
// the slot counts walk the head to the first cut, to four or five of
// the sixteen cuts, and through every cut.
TEST(GatingSampler, RowsDoNotDependOnEarlierBuilds)
{
    constexpr int kExperts = 128;
    constexpr int kGroups = 3;
    constexpr int kFirstCutSlots = 200;
    constexpr int kFewCutsSlots = 2200;
    constexpr int kEveryCutSlots = 1 << 20;
    const auto base =
        scenarioAffinity(ScenarioKind::Coding, 0, kExperts, 1.0, 17);
    GatingSampler reused;
    for (int build = 0; build < 12; ++build) {
        // Drift: rotate the affinity, then tie a block of twelve
        // experts at one weight and zero one expert.
        std::vector<double> weights(kExperts);
        for (int e = 0; e < kExperts; ++e)
            weights[std::size_t(e)] =
                base[std::size_t((e + 5 * build) % kExperts)];
        const double tie = weights[std::size_t(build)];
        for (int e = 40; e < 52; ++e)
            weights[std::size_t(e)] = tie;
        weights[std::size_t((7 * build) % kExperts)] = 0.0;

        reused.build(weights);
        GatingSampler fresh;
        fresh.build(weights);
        for (const int slots : {kFirstCutSlots, kFewCutsSlots,
                                kEveryCutSlots}) {
            std::vector<Rng> a;
            std::vector<Rng> b;
            for (int g = 0; g < kGroups; ++g) {
                const auto seed =
                    std::uint64_t(build * 1000 + slots + g);
                a.emplace_back(seed);
                b.emplace_back(seed);
            }
            std::vector<std::vector<int>> rowsA(kGroups);
            std::vector<std::vector<int>> rowsB(kGroups);
            reused.sampleRowsInto(a.data(), rowsA.data(), kGroups, slots);
            fresh.sampleRowsInto(b.data(), rowsB.data(), kGroups, slots);
            EXPECT_EQ(rowsA, rowsB)
                << "build " << build << ", " << slots << " slots";
            for (const auto &row : rowsA)
                EXPECT_EQ(row[std::size_t((7 * build) % kExperts)], 0);
        }
    }
}

// Every draw consumes exactly one uniform; zero draws consume none
// and a single category takes every draw.
TEST(AliasKernel, OneUniformPerDraw)
{
    const std::vector<std::vector<double>> tables{
        {3.0}, scenarioAffinity(ScenarioKind::Chat, 0, 96, 1.0, 5)};
    for (const auto &weights : tables) {
        AliasTable table;
        table.build(weights);
        for (const int draws : {0, 1, 3, 4, 5, 95, 96, 97, 1023}) {
            Rng rng(6);
            Rng reference(6);
            std::vector<int> row{7, 7};
            table.sampleInto(rng, draws, row);
            ASSERT_EQ(row.size(), weights.size());
            EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), draws);
            for (int d = 0; d < draws; ++d)
                reference.uniform();
            EXPECT_EQ(rng.next(), reference.next());
        }
    }
}

// The alias kernel scales a draw's raw 53 bits v by n·2⁻⁵³ in one
// multiply and takes no clamp. Both rest on the largest uniform: for
// every table size, (1 − 2⁻⁵³)·n must truncate to n − 1, and the
// one-multiply form must give the same double as uniform() · n.
TEST(AliasTable, LargestUniformTimesNStaysBelowN)
{
    constexpr std::int64_t kLargest = (std::int64_t{1} << 53) - 1;
    const double largest = static_cast<double>(kLargest) * 0x1.0p-53;
    for (std::int64_t n = 1; n <= (std::int64_t{1} << 20); ++n) {
        const double width = static_cast<double>(n);
        const double scaled = largest * width;
        const double oneMultiply =
            static_cast<double>(kLargest) * (width * 0x1.0p-53);
        ASSERT_EQ(static_cast<std::int64_t>(scaled), n - 1) << "n " << n;
        ASSERT_EQ(oneMultiply, scaled) << "n " << n;
    }
}

// Per-expert frequencies of the kernel match the affinity within five
// binomial standard deviations (plus 1e-4 slack for near-zero
// weights) and the reference sampler's frequencies within five
// standard deviations of the difference of two independent samples;
// zero-weight experts are never drawn.
TEST(AliasKernel, FrequenciesMatchAffinity)
{
    constexpr int kDraws = 400000;
    for (const int experts : {96, 256}) {
        auto weights =
            scenarioAffinity(ScenarioKind::Math, 0, experts, 1.0, 11);
        for (int e = 0; e < experts; e += 7)
            weights[static_cast<std::size_t>(e)] = 0.0;
        const double total =
            std::accumulate(weights.begin(), weights.end(), 0.0);
        AliasTable table;
        table.build(weights);
        Rng rng(12);
        std::vector<int> row;
        table.sampleInto(rng, kDraws, row);
        Rng refRng(13);
        const auto ref = sampleMultinomial(refRng, weights, kDraws);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(experts));
        for (std::size_t e = 0; e < row.size(); ++e) {
            const double p = weights[e] / total;
            if (p == 0.0) {
                EXPECT_EQ(row[e], 0) << "expert " << e;
                continue;
            }
            const double sigma = std::sqrt(p * (1.0 - p) / kDraws);
            const double freq = row[e] / double(kDraws);
            EXPECT_NEAR(freq, p, 5.0 * sigma + 1e-4)
                << "expert " << e << " of " << experts;
            EXPECT_NEAR(freq, ref[e] / double(kDraws),
                        5.0 * std::sqrt(2.0) * sigma + 1e-4)
                << "expert " << e << " of " << experts;
        }
    }
}

// ------------------------------------------------------ generator ----

TEST(Workload, BalancedAffinityIsUniform)
{
    WorkloadConfig cfg;
    cfg.numExperts = 32;
    cfg.mode = GatingMode::Balanced;
    const WorkloadGenerator gen(cfg);
    const auto aff = gen.affinity(0, 0);
    for (const double a : aff)
        EXPECT_NEAR(a, 1.0 / 32.0, 1e-12);
}

TEST(Workload, AffinityIsNormalised)
{
    WorkloadConfig cfg;
    cfg.numExperts = 64;
    cfg.mode = GatingMode::MixedScenario;
    const WorkloadGenerator gen(cfg);
    const auto aff = gen.affinity(100, 0);
    EXPECT_NEAR(std::accumulate(aff.begin(), aff.end(), 0.0), 1.0,
                1e-9);
}

TEST(Workload, SingleScenarioAffinityIsStationary)
{
    WorkloadConfig cfg;
    cfg.numExperts = 64;
    cfg.mode = GatingMode::SingleScenario;
    cfg.scenario = ScenarioKind::Math;
    const WorkloadGenerator gen(cfg);
    EXPECT_EQ(gen.affinity(0, 0), gen.affinity(500, 0));
}

TEST(Workload, MixedScenarioAffinityDrifts)
{
    WorkloadConfig cfg;
    cfg.numExperts = 64;
    cfg.mode = GatingMode::MixedScenario;
    cfg.mixPeriod = 400;
    const WorkloadGenerator gen(cfg);
    const auto a = gen.affinity(0, 0);
    const auto b = gen.affinity(200, 0); // half a period later
    double delta = 0.0;
    for (std::size_t e = 0; e < a.size(); ++e)
        delta += std::abs(a[e] - b[e]);
    EXPECT_GT(delta, 0.05);
}

TEST(Workload, MixedScenarioIsCyclic)
{
    WorkloadConfig cfg;
    cfg.numExperts = 64;
    cfg.mode = GatingMode::MixedScenario;
    cfg.mixPeriod = 100;
    const WorkloadGenerator gen(cfg);
    const auto a = gen.affinity(0, 0);
    const auto b = gen.affinity(100, 0);
    for (std::size_t e = 0; e < a.size(); ++e)
        EXPECT_NEAR(a[e], b[e], 1e-9);
}

TEST(Workload, SampleCountsShape)
{
    WorkloadConfig cfg;
    cfg.numExperts = 32;
    cfg.topK = 4;
    WorkloadGenerator gen(cfg);
    const auto counts = gen.sampleCounts(0, 0, 100, 8);
    ASSERT_EQ(counts.size(), 8u);
    for (const auto &row : counts) {
        ASSERT_EQ(row.size(), 32u);
        EXPECT_EQ(std::accumulate(row.begin(), row.end(), 0), 400);
    }
}

TEST(Workload, SameSeedSameTrace)
{
    WorkloadConfig cfg;
    cfg.numExperts = 16;
    cfg.seed = 99;
    WorkloadGenerator a(cfg);
    WorkloadGenerator b(cfg);
    EXPECT_EQ(a.sampleCounts(0, 0, 64, 4), b.sampleCounts(0, 0, 64, 4));
}

TEST(Workload, ExpertLoadsAggregatesColumns)
{
    const std::vector<std::vector<int>> counts{{1, 2, 3}, {4, 5, 6}};
    const auto loads = WorkloadGenerator::expertLoads(counts, 3);
    EXPECT_DOUBLE_EQ(loads[0], 5.0);
    EXPECT_DOUBLE_EQ(loads[1], 7.0);
    EXPECT_DOUBLE_EQ(loads[2], 9.0);
}

TEST(Workload, SkewedScenarioLoadsAreImbalanced)
{
    WorkloadConfig cfg;
    cfg.numExperts = 128;
    cfg.topK = 8;
    cfg.mode = GatingMode::SingleScenario;
    WorkloadGenerator gen(cfg);
    const auto counts = gen.sampleCounts(0, 0, 256, 8);
    const auto loads = WorkloadGenerator::expertLoads(counts, 128);
    const double mean =
        std::accumulate(loads.begin(), loads.end(), 0.0) / 128.0;
    const double peak = *std::max_element(loads.begin(), loads.end());
    EXPECT_GT(peak / mean, 2.0); // strongly skewed (Fig. 12)
}

TEST(Workload, BalancedLoadsAreFlat)
{
    WorkloadConfig cfg;
    cfg.numExperts = 128;
    cfg.topK = 8;
    cfg.mode = GatingMode::Balanced;
    WorkloadGenerator gen(cfg);
    const auto counts = gen.sampleCounts(0, 0, 2048, 8);
    const auto loads = WorkloadGenerator::expertLoads(counts, 128);
    const double mean =
        std::accumulate(loads.begin(), loads.end(), 0.0) / 128.0;
    const double peak = *std::max_element(loads.begin(), loads.end());
    EXPECT_LT(peak / mean, 1.3); // only multinomial noise
}
