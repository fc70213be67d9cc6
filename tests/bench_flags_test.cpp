/**
 * @file
 * Tests for the shared bench helpers (bench/flags.hh, bench/jobs.hh,
 * bench/sweep_output.hh): last-wins value flags, `--jobs` parsing that
 * validates every occurrence, positionals() skipping known flags'
 * values and rejecting unknown flags, the strict numeric parsing, and
 * valid JSON string escaping in SWEEP files.
 */

#include <gtest/gtest.h>

#include "flags.hh"
#include "jobs.hh"
#include "sweep_output.hh"

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

TEST(BenchJobs, JobsFromArgsParsesBothSpellings)
{
    const char *argv1[] = {"bench", "--jobs", "3"};
    EXPECT_EQ(benchjobs::jobsFromArgs(3, const_cast<char **>(argv1)),
              3);
    const char *argv2[] = {"bench", "50", "--jobs=7"};
    EXPECT_EQ(benchjobs::jobsFromArgs(3, const_cast<char **>(argv2)),
              7);
    const char *argv3[] = {"bench", "50"};
    EXPECT_EQ(benchjobs::jobsFromArgs(2, const_cast<char **>(argv3)),
              0);
}

TEST(BenchJobs, JobsFromArgsLastOccurrenceWins)
{
    // The normal CLI override convention: append `--jobs 1` to any
    // command line to force a serial run.
    const char *spaced[] = {"bench", "--jobs", "8", "--jobs", "1"};
    EXPECT_EQ(benchjobs::jobsFromArgs(5, const_cast<char **>(spaced)),
              1);
    const char *inlined[] = {"bench", "--jobs=8", "--jobs=3"};
    EXPECT_EQ(benchjobs::jobsFromArgs(3, const_cast<char **>(inlined)),
              3);
    const char *mixed[] = {"bench", "--jobs=2", "50", "--jobs", "6"};
    EXPECT_EQ(benchjobs::jobsFromArgs(5, const_cast<char **>(mixed)),
              6);
}

TEST(BenchJobsDeathTest, EveryJobsOccurrenceIsValidated)
{
    // Last-wins must not become last-parsed: a malformed value dies
    // loudly wherever it appears in the command line.
    const char *badLast[] = {"bench", "--jobs", "8", "--jobs", "bogus"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(5, const_cast<char **>(badLast)),
        ::testing::ExitedWithCode(1), "positive integer");
    const char *badFirst[] = {"bench", "--jobs=0x4", "--jobs", "8"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(4, const_cast<char **>(badFirst)),
        ::testing::ExitedWithCode(1), "positive integer");
}

TEST(BenchJobsDeathTest, HalfParsedJobsArgIsFatal)
{
    const char *trailing[] = {"bench", "--jobs", "4abc"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(3, const_cast<char **>(trailing)),
        ::testing::ExitedWithCode(1), "positive integer");
    const char *inlineSpelling[] = {"bench", "--jobs=2x"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(2, const_cast<char **>(inlineSpelling)),
        ::testing::ExitedWithCode(1), "positive integer");
    const char *negative[] = {"bench", "--jobs", "-3"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(3, const_cast<char **>(negative)),
        ::testing::ExitedWithCode(1), "positive integer");
    const char *empty[] = {"bench", "--jobs="};
    EXPECT_EXIT(benchjobs::jobsFromArgs(2, const_cast<char **>(empty)),
                ::testing::ExitedWithCode(1), "positive integer");
    const char *overflow[] = {"bench", "--jobs", "99999999999999999999"};
    EXPECT_EXIT(
        benchjobs::jobsFromArgs(3, const_cast<char **>(overflow)),
        ::testing::ExitedWithCode(1), "positive integer");
}

TEST(SweepOutput, JsonEscapesControlCharacters)
{
    SweepResult row;
    row.label = "a\tb\x01" "c\"d";
    row.add("key\n", 1.0);
    const std::string json = benchout::sweepJson("bench\\", {row});
    for (const char c : json) {
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control character " << static_cast<int>(c);
    }
    EXPECT_NE(json.find("\"label\": \"a\\tb\\u0001c\\\"d\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"key\\n\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"bench\": \"bench\\\\\""), std::string::npos)
        << json;
}
