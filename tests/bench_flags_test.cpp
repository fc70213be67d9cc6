/**
 * @file
 * Tests for the shared bench CLI helpers (bench/flags.hh): last-wins
 * value flags mirroring SweepRunner::jobsFromArgs, positionals()
 * skipping known flags' values and rejecting unknown flags, and the
 * strict numeric parsing.
 */

#include <gtest/gtest.h>

#include "flags.hh"

using namespace moentwine;

TEST(BenchFlags, StringFlagLastOccurrenceWins)
{
    const char *argv[] = {"bench", "--trace", "a.json", "--trace=b.json"};
    EXPECT_EQ(benchflags::stringFlag(4, const_cast<char **>(argv),
                                     "--trace"),
              "b.json");
    const char *rev[] = {"bench", "--stats=x", "--stats", "y"};
    EXPECT_EQ(
        benchflags::stringFlag(4, const_cast<char **>(rev), "--stats"),
        "y");
    const char *absent[] = {"bench", "50"};
    EXPECT_EQ(benchflags::stringFlag(2, const_cast<char **>(absent),
                                     "--trace"),
              "");
}

TEST(BenchFlags, StringFlagSkipsItsValueWhenScanning)
{
    // `--trace --stats` must read "--stats" as --trace's value, not
    // silently treat the line as two valueless flags.
    const char *argv[] = {"bench", "--trace", "--stats"};
    EXPECT_EQ(benchflags::stringFlag(3, const_cast<char **>(argv),
                                     "--trace"),
              "--stats");
}

TEST(BenchFlags, PositionalsSkipKnownFlagValues)
{
    const char *argv[] = {"bench", "--jobs", "2", "120", "--trace=t.json",
                          "--stats", "s.json"};
    const auto pos = benchflags::positionals(7, const_cast<char **>(argv));
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0], "120");
}

TEST(BenchFlagsDeathTest, UnknownFlagIsFatal)
{
    const char *argv[] = {"bench", "--affinty"};
    EXPECT_EXIT(benchflags::positionals(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "unknown flag");
}

TEST(BenchFlagsDeathTest, DanglingValueFlagIsFatal)
{
    const char *argv[] = {"bench", "--stats"};
    EXPECT_EXIT(benchflags::stringFlag(2, const_cast<char **>(argv),
                                       "--stats"),
                ::testing::ExitedWithCode(1), "expects a value");
}

TEST(BenchFlags, PositiveIntRejectsGarbage)
{
    EXPECT_EQ(benchflags::positiveInt("128", "test"), 128);
    EXPECT_EXIT(benchflags::positiveInt("12x", "test"),
                ::testing::ExitedWithCode(1), "positive integer");
    EXPECT_EXIT(benchflags::positiveInt("-4", "test"),
                ::testing::ExitedWithCode(1), "positive integer");
}
