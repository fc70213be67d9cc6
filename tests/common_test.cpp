/**
 * @file
 * Unit tests for the common utilities: deterministic RNG, statistics,
 * and the ASCII table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

using namespace moentwine;

// ---------------------------------------------------------------- Rng --

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// Pins the xoshiro256** / splitmix64 stream: every simulated trace is
// a function of it, so it must not move with refactors.
TEST(Rng, PinnedStream)
{
    Rng rng(1);
    EXPECT_EQ(rng.next(), 0xb3f2af6d0fc710c5ULL);
    EXPECT_EQ(rng.next(), 0x853b559647364ceaULL);
    EXPECT_EQ(rng.next(), 0x92f89756082a4514ULL);
}

TEST(Rng, DifferentSeedsDifferentStreams)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(15);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all five values hit
}

TEST(Rng, NormalMomentsConverge)
{
    Rng rng(17);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(23);
    const std::vector<double> w{1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / double(n), 0.6, 0.01);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(25);
    const auto p = rng.permutation(50);
    std::set<std::size_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, PermutationShuffles)
{
    Rng rng(27);
    const auto p = rng.permutation(100);
    int fixed = 0;
    for (std::size_t i = 0; i < p.size(); ++i)
        fixed += p[i] == i;
    EXPECT_LT(fixed, 10); // expected ~1 fixed point
}

TEST(Rng, ForkIsIndependentButDeterministic)
{
    Rng a(31);
    Rng b(31);
    Rng fa = a.fork();
    Rng fb = b.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fa.next(), fb.next());
}

// ------------------------------------------------------------ Summary --

TEST(Summary, BasicMoments)
{
    Summary s;
    for (const double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, StddevOfConstantIsZero)
{
    Summary s;
    for (int i = 0; i < 10; ++i)
        s.add(5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, StddevMatchesHandComputation)
{
    Summary s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    // Sample stddev of this classic set is ~2.138.
    EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(Summary, PercentileEndpoints)
{
    Summary s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
}

TEST(Summary, PercentileSingleSample)
{
    Summary s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(37.0), 42.0);
}

// ------------------------------------------------------------ helpers --

TEST(StatsHelpers, MeanMax)
{
    const std::vector<double> xs{1.0, 5.0, 3.0};
    EXPECT_DOUBLE_EQ(meanOf(xs), 3.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 5.0);
}

// --------------------------------------------------------------- Table --

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatsDecimals)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, PctFormatsSigned)
{
    EXPECT_EQ(Table::pct(0.39), "+39.0%");
    EXPECT_EQ(Table::pct(-0.155), "-15.5%");
}

// --------------------------------------------------------------- units --

TEST(Units, Relationships)
{
    EXPECT_DOUBLE_EQ(units::TB, 1000.0 * units::GB);
    EXPECT_DOUBLE_EQ(units::GB, 1000.0 * units::MB);
    EXPECT_DOUBLE_EQ(units::GiB, 1024.0 * units::MiB);
    EXPECT_DOUBLE_EQ(units::MICRO, 1000.0 * units::NANO);
    EXPECT_DOUBLE_EQ(units::PFLOPS, 1000.0 * units::TFLOPS);
}
