/**
 * @file
 * Tests for the scenario-conditioned workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

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

// ------------------------------------------------------ alias kernel ----

// Counts pinned from the one-draw-at-a-time sampler the kernel
// replaced: any kernel change must consume the same uniforms in the
// same order and reproduce these bit for bit. 96 experts covers the
// non-power-of-two width, where u·n can round up to n.
TEST(AliasKernel, PinnedBalancedStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 128),
              0x541adb6cd2983a2fULL);
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 256),
              0x1f4e22bdc20ceaadULL);
    EXPECT_EQ(gatingDigest(GatingMode::Balanced, 96),
              0x292abf2a8d753df7ULL);
}

TEST(AliasKernel, PinnedSingleScenarioStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 128),
              0x93404e4d3debbe47ULL);
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 256),
              0x6b6db3470ece2481ULL);
    EXPECT_EQ(gatingDigest(GatingMode::SingleScenario, 96),
              0x37a3344af0d2d3d6ULL);
}

TEST(AliasKernel, PinnedMixedScenarioStream)
{
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 128),
              0x87078a634eba7c2dULL);
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 256),
              0xcbd6396c4da9a979ULL);
    EXPECT_EQ(gatingDigest(GatingMode::MixedScenario, 96),
              0x05ed641a4883b20aULL);
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
    cfg.zipf = 1.0;
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
