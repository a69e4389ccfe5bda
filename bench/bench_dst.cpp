/**
 * @file
 * DST soak driver: fuzz seeded scenarios through the invariant
 * checker until a seed count or a wall-clock budget is exhausted.
 *
 *   bench_dst --seeds=200 --jobs=8        # fixed-count campaign
 *   bench_dst --time-budget=120 --jobs=8  # nightly soak (seconds)
 *   bench_dst --short                     # CI smoke (24 seeds)
 *   bench_dst --dump-seed=7 --dump-out=x.scenario.json
 *
 * On a violation the driver shrinks the failing scenario to a
 * minimal reproducer, writes it to dst_failure_<seed>.scenario.json
 * (check it into tests/dst/data/ once fixed), and exits non-zero.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "bench/bench_common.h"
#include "testing/fuzzer.h"
#include "testing/shrinker.h"

namespace splitwise {
namespace {

struct DstArgs {
    int seeds = 200;
    std::uint64_t baseSeed = 1;
    /** Wall-clock budget in seconds; 0 = run exactly `seeds`. */
    double timeBudgetS = 0.0;
    /** Raw `--time-budget` value; accepts an optional 's' suffix. */
    std::string timeBudget;
    /** Invariant cadence (1 = every quiescent point). */
    int checkEvery = 1;
    std::uint64_t dumpSeed = 0;
    std::string dumpOut;
    /** Parsed shared --spans flag (Scenario::spanOverride). */
    int spanOverride = 0;
};

DstArgs
parseArgs(int argc, char** argv)
{
    DstArgs args;
    auto parser = bench::benchParser(
        "bench_dst",
        "DST soak: fuzz seeded scenarios through the invariant checker "
        "until a seed count or wall-clock budget is exhausted",
        bench::kSpans | bench::kJobs | bench::kShort);
    parser.addInt("--seeds", &args.seeds, "scenario count for the campaign");
    parser.addUint64("--base-seed", &args.baseSeed, "first scenario seed");
    parser.addString("--time-budget", &args.timeBudget,
                     "wall-clock budget in seconds (optional 's' suffix); "
                     "overrides --seeds");
    parser.addInt("--check-every", &args.checkEvery,
                  "invariant cadence (1 = every quiescent point)");
    parser.addUint64("--dump-seed", &args.dumpSeed,
                     "scenario seed to dump with --dump-out");
    parser.addString("--dump-out", &args.dumpOut,
                     "write the --dump-seed scenario JSON here and exit");
    parser.parse(argc, argv);
    // The shared --spans flag maps onto the scenario override: "auto"
    // lets each fuzzed scenario decide.
    const std::string& spans = bench::benchArgs().spans;
    if (spans == "on")
        args.spanOverride = 1;
    else if (spans == "off")
        args.spanOverride = -1;
    if (!args.timeBudget.empty()) {
        std::string v = args.timeBudget;
        if (v.back() == 's')
            v.pop_back();
        try {
            args.timeBudgetS = std::stod(v);
        } catch (const std::exception&) {
            parser.fail("--time-budget: invalid value '" + args.timeBudget +
                        "'");
        }
    }
    if (args.seeds < 1)
        sim::fatal("--seeds must be >= 1");
    if (args.checkEvery < 1)
        sim::fatal("--check-every must be >= 1");
    return args;
}

int
runSoak(const DstArgs& args)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    auto elapsedS = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };

    const int jobs = bench::effectiveJobs();
    const int batch = std::max(16, 4 * jobs);
    const bool timed = args.timeBudgetS > 0.0;

    std::uint64_t ran = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t restarts = 0;
    std::uint64_t transfers = 0;

    bench::banner("DST soak");
    std::printf("jobs=%d base_seed=%llu %s\n", jobs,
                static_cast<unsigned long long>(args.baseSeed),
                timed ? ("budget=" + std::to_string(args.timeBudgetS) + "s")
                           .c_str()
                      : ("seeds=" + std::to_string(args.seeds)).c_str());

    while (true) {
        const std::uint64_t remaining =
            timed ? static_cast<std::uint64_t>(batch)
                  : static_cast<std::uint64_t>(args.seeds) - ran;
        if (remaining == 0)
            break;

        testing::FuzzerConfig config;
        config.scenarios = static_cast<int>(
            std::min<std::uint64_t>(remaining,
                                    static_cast<std::uint64_t>(batch)));
        config.baseSeed = args.baseSeed + ran;
        config.jobs = jobs;
        config.spanOverride = args.spanOverride;
        config.invariants.checkEveryNthAdvance = args.checkEvery;
        const auto results = testing::fuzz(config);

        for (const auto& r : results) {
            if (r.outcome.violated) {
                std::printf(
                    "\nVIOLATION seed=%llu invariant=%s t=%lld us\n  %s\n",
                    static_cast<unsigned long long>(r.seed),
                    r.outcome.invariant.c_str(),
                    static_cast<long long>(r.outcome.violationTime),
                    r.outcome.detail.c_str());
                if (!r.outcome.flightRecorderJson.empty()) {
                    // The tracker's last moments before the violation:
                    // recent completed timelines plus everything live.
                    const std::string flight_path =
                        "dst_flight_" + std::to_string(r.seed) + ".json";
                    std::FILE* file =
                        std::fopen(flight_path.c_str(), "w");
                    if (file) {
                        std::fwrite(r.outcome.flightRecorderJson.data(), 1,
                                    r.outcome.flightRecorderJson.size(),
                                    file);
                        std::fclose(file);
                        std::printf("flight recorder: %s\n",
                                    flight_path.c_str());
                    }
                }
                std::printf("shrinking (%zu requests, %zu faults)...\n",
                            r.scenario.requests.size(),
                            r.scenario.faults.size());
                const testing::ShrinkResult shrunk =
                    testing::shrink(r.scenario);
                const std::string path =
                    "dst_failure_" + std::to_string(r.seed) +
                    ".scenario.json";
                testing::writeScenarioFile(shrunk.minimal, path);
                std::printf(
                    "minimal reproducer: %zu requests, %zu faults "
                    "(%d runs) -> %s\n",
                    shrunk.minimal.requests.size(),
                    shrunk.minimal.faults.size(), shrunk.runs,
                    path.c_str());
                return 1;
            }
            completed += r.outcome.completed;
            rejected += r.outcome.rejected;
            restarts += r.outcome.restarts;
            transfers += r.outcome.transfers;
        }
        ran += static_cast<std::uint64_t>(results.size());
        std::printf("  %llu scenarios clean (%.1fs)\n",
                    static_cast<unsigned long long>(ran), elapsedS());
        std::fflush(stdout);
        if (timed && elapsedS() >= args.timeBudgetS)
            break;
    }

    std::printf(
        "\n%llu scenarios, 0 violations in %.1fs\n"
        "  completed=%llu rejected=%llu restarts=%llu transfers=%llu\n",
        static_cast<unsigned long long>(ran), elapsedS(),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(restarts),
        static_cast<unsigned long long>(transfers));
    return 0;
}

}  // namespace
}  // namespace splitwise

int
main(int argc, char** argv)
{
    using namespace splitwise;
    DstArgs args = parseArgs(argc, argv);
    if (bench::benchArgs().shortRun)
        args.seeds = std::min(args.seeds, 24);

    if (!args.dumpOut.empty()) {
        testing::writeScenarioFile(testing::makeScenario(args.dumpSeed),
                                   args.dumpOut);
        std::printf("wrote scenario seed=%llu to %s\n",
                    static_cast<unsigned long long>(args.dumpSeed),
                    args.dumpOut.c_str());
        return 0;
    }
    return runSoak(args);
}
