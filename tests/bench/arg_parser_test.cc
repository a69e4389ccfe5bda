#include "bench/arg_parser.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/log.h"

namespace splitwise::bench {
namespace {

/**
 * The bench CLI contract: unknown flags and registration bugs exit 2
 * with a diagnostic on stderr; --help exits 0. Exercised in death
 * tests because ArgParser terminates the process by design.
 */
struct Argv {
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (auto& s : strings)
            pointers.push_back(s.data());
        pointers.push_back(nullptr);
    }

    int argc() const { return static_cast<int>(strings.size()); }
    char** argv() { return pointers.data(); }

    std::vector<std::string> strings;
    std::vector<char*> pointers;
};

TEST(ArgParserTest, ParsesTypedFlagsAndPositional)
{
    ArgParser parser("bench_x", "test parser");
    int jobs = 0;
    double rate = 1.5;
    bool flag = false;
    std::string out;
    std::string seed;
    parser.addInt("--jobs", &jobs, "worker count");
    parser.addDouble("--rate", &rate, "arrival rate");
    parser.addFlag("--short", &flag, "short run");
    parser.addString("--out", &out, "output path");
    parser.addPositional("seed", &seed, "base seed");

    Argv args({"bench_x", "--jobs=8", "--rate", "2.75", "--short",
               "--out=/tmp/x.json", "1234"});
    parser.parse(args.argc(), args.argv());
    EXPECT_EQ(jobs, 8);
    EXPECT_DOUBLE_EQ(rate, 2.75);
    EXPECT_TRUE(flag);
    EXPECT_EQ(out, "/tmp/x.json");
    EXPECT_EQ(seed, "1234");
}

TEST(ArgParserDeathTest, UnknownFlagExits2)
{
    ArgParser parser("bench_x", "test parser");
    int jobs = 0;
    parser.addInt("--jobs", &jobs, "worker count");
    Argv args({"bench_x", "--job=8"});
    EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2), "unknown flag --job");
}

TEST(ArgParserDeathTest, InvalidValueExits2)
{
    ArgParser parser("bench_x", "test parser");
    int jobs = 0;
    parser.addInt("--jobs", &jobs, "worker count");
    Argv args({"bench_x", "--jobs=eight"});
    EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2), "invalid value 'eight'");
}

TEST(ArgParserDeathTest, MissingValueExits2)
{
    ArgParser parser("bench_x", "test parser");
    int jobs = 0;
    parser.addInt("--jobs", &jobs, "worker count");
    Argv args({"bench_x", "--jobs"});
    EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2), "--jobs requires a value");
}

TEST(ArgParserDeathTest, DuplicateRegistrationExits2)
{
    EXPECT_EXIT(
        {
            ArgParser parser("bench_x", "test parser");
            int jobs = 0;
            int workers = 0;
            parser.addInt("--jobs", &jobs, "worker count");
            parser.addInt("--jobs", &workers, "conflicting registration");
        },
        ::testing::ExitedWithCode(2), "duplicate flag registration --jobs");
}

TEST(ArgParserDeathTest, ValidatorFatalExits2)
{
    // Validators report bad combinations with sim::fatal, which
    // throws; the parser must turn that into the exit-2 contract
    // instead of letting it escape main as an abort, and stderr must
    // hold fail()'s diagnostic alone, without the logger's
    // "[error] fatal: ..." copy of it.
    ArgParser parser("bench_x", "test parser");
    int jobs = 0;
    parser.addInt("--jobs", &jobs, "worker count");
    parser.addValidator([&jobs] {
        if (jobs < 0)
            sim::fatal("--jobs must be >= 0");
    });
    Argv args({"bench_x", "--jobs=-1"});
    EXPECT_EXIT(parser.parse(args.argc(), args.argv()),
                ::testing::ExitedWithCode(2),
                "^bench_x: --jobs must be >= 0\n"
                "run 'bench_x --help' for usage\n$");
}

TEST(ArgParserDeathTest, HelpExitsZeroAndListsFlags)
{
    // printHelp writes to stdout; the death-test matcher only sees
    // stderr, so point stdout at stderr inside the child process.
    EXPECT_EXIT(
        {
            ArgParser parser("bench_x", "one-line summary");
            int jobs = 4;
            bool short_run = false;
            parser.addInt("--jobs", &jobs, "worker count");
            parser.addFlag("--short", &short_run, "short run");
            std::fflush(stdout);
            dup2(STDERR_FILENO, STDOUT_FILENO);
            Argv args({"bench_x", "--help"});
            parser.parse(args.argc(), args.argv());
        },
        ::testing::ExitedWithCode(0),
        "usage: bench_x(.|\n)*one-line summary(.|\n)*--jobs=VALUE"
        "(.|\n)*worker count(.|\n)*default: 4(.|\n)*--short(.|\n)*--help");
}

}  // namespace
}  // namespace splitwise::bench
