/**
 * @file
 * The bench harnesses' flag parser (bench/bench_common.hh): a flag no
 * bench knows, and an execution flag the constructing bench does not
 * read, both exit with the usage code 2 and a diagnostic naming the
 * flag, instead of being ignored.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"

namespace bespoke
{
namespace
{

/** Parse `flags` as the command line of a bench named "probe". */
void
parseBenchFlags(std::vector<std::string> flags, unsigned reads)
{
    std::vector<char *> argv;
    std::string name = "probe";
    argv.push_back(name.data());
    for (std::string &f : flags)
        argv.push_back(f.data());
    BenchIO io(static_cast<int>(argv.size()), argv.data(), name, reads);
}

TEST(BenchIODeathTest, RejectsUnknownAndUnreadFlags)
{
    EXPECT_EXIT(parseBenchFlags({"--sat-threads", "2"}, BenchIO::Threads),
                ::testing::ExitedWithCode(2),
                "unknown bench flag '--sat-threads'");
    EXPECT_EXIT(parseBenchFlags({"--checkpoint-dir", "ck"}, 0),
                ::testing::ExitedWithCode(2),
                "unknown bench flag '--checkpoint-dir'");
    EXPECT_EXIT(parseBenchFlags({"--lanes", "1"}, BenchIO::Threads),
                ::testing::ExitedWithCode(2),
                "unknown bench flag '--lanes'");
    EXPECT_EXIT(parseBenchFlags({"--threads", "2"}, 0),
                ::testing::ExitedWithCode(2),
                "probe does not read --threads");
}

TEST(BenchIO, AcceptsTheFlagsItReads)
{
    char prog[] = "probe", quick[] = "--quick", threads[] = "--threads",
         three[] = "3";
    char *argv[] = {prog, quick, threads, three};
    BenchIO io(4, argv, "probe", BenchIO::Threads);
    EXPECT_TRUE(io.quick());
    EXPECT_EQ(io.threads(), 3);
}

} // namespace
} // namespace bespoke
