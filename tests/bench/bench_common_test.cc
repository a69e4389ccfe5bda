#include "bench/bench_common.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace splitwise::bench {
namespace {

/**
 * The shared-flag groups: a bench registers only the groups it acts
 * on, so a flag from another group is an unknown flag (exit 2), and
 * the flags it does register reach the run configuration.
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

TEST(BenchCommonDeathTest, JobsOnlyRejectsSinkFlags)
{
    Argv args({"bench_x", "--trace-out=x"});
    EXPECT_EXIT(parseBenchArgs(args.argc(), args.argv(), "bench_x",
                               "summary", kJobs),
                ::testing::ExitedWithCode(2), "unknown flag --trace-out");
}

TEST(BenchCommonDeathTest, JobsOnlyHelpListsJobsAlone)
{
    // The whole help text is matched, so no other shared flag (in
    // particular --policy) is listed. printHelp writes to stdout and
    // the matcher sees stderr, so point stdout at stderr.
    EXPECT_EXIT(
        {
            std::fflush(stdout);
            dup2(STDERR_FILENO, STDOUT_FILENO);
            Argv args({"bench_x", "--help"});
            parseBenchArgs(args.argc(), args.argv(), "bench_x", "summary",
                           kJobs);
        },
        ::testing::ExitedWithCode(0),
        "^usage: bench_x \\[flags\\]\n\nsummary\n\nflags:\n"
        "  --jobs=VALUE +[^\n]*\n"
        "  --help +show this help\n$");
}

TEST(BenchCommonDeathTest, SinkBenchRejectsSpans)
{
    // The sink benches print no span output; a breakdown file comes
    // from --breakdown-out, which switches span tracking on itself.
    Argv args({"bench_x", "--spans", "on"});
    EXPECT_EXIT(parseBenchArgs(args.argc(), args.argv(), "bench_x",
                               "summary", kSinks | kPolicy),
                ::testing::ExitedWithCode(2), "unknown flag --spans");
}

TEST(BenchCommonDeathTest, UnknownPolicyExits2)
{
    Argv args({"bench_x", "--policy", "bogus"});
    EXPECT_EXIT(parseBenchArgs(args.argc(), args.argv(), "bench_x",
                               "summary", kPolicy),
                ::testing::ExitedWithCode(2), "unknown policy 'bogus'");
}

TEST(BenchCommonTest, SpansOverridesTheBenchDefault)
{
    // The sweep's span-overhead A/B switch. This test mutates the
    // process-wide BenchArgs, so it restores the default afterwards.
    Argv on({"bench_x", "--spans", "on"});
    parseBenchArgs(on.argc(), on.argv(), "bench_x", "summary",
                   kSpans | kJobs);
    core::SimConfig config;
    applyTelemetryCli(config);
    EXPECT_TRUE(config.telemetry.spanTracking);
    benchArgs().spans = "off";
    applyTelemetryCli(config);
    EXPECT_FALSE(config.telemetry.spanTracking);
    benchArgs().spans = "auto";
    config.telemetry.spanTracking = true;
    applyTelemetryCli(config);
    EXPECT_TRUE(config.telemetry.spanTracking);
}

TEST(BenchCommonTest, SinkPathsEnableTheirCollection)
{
    // applyTelemetryCli sets the grid; core::enableSinks switches on
    // what each set path needs and keeps that grid.
    BenchArgs& args = benchArgs();
    args.sinks.timeseriesPath = "ts.csv";
    args.sinks.breakdownPath = "bd.json";
    args.sampleIntervalMs = 250.0;
    core::SimConfig config;
    applyTelemetryCli(config);
    core::enableSinks(config, args.sinks);
    EXPECT_FALSE(config.telemetry.traceEnabled);
    EXPECT_TRUE(config.telemetry.spanTracking);
    EXPECT_EQ(config.telemetry.sampleIntervalUs, sim::msToUs(250.0));
    args.sinks = {};
    args.sampleIntervalMs = 1000.0;
}

TEST(BenchCommonTest, CliRunSinksSuffixesOnlySetPaths)
{
    benchArgs().sinks.tracePath = "dir/trace.json";
    const core::RunSinks sinks = cliRunSinks(2);
    EXPECT_EQ(sinks.tracePath, "dir/trace.2.json");
    EXPECT_TRUE(sinks.timeseriesPath.empty());
    EXPECT_TRUE(sinks.breakdownPath.empty());
    benchArgs().sinks = {};
}

}  // namespace
}  // namespace splitwise::bench
