/**
 * @file
 * perfbench_runner: runs one benchmark workload and prints its
 * metrics. run.py builds this and calls
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --server <splitwise_server>
 *                    --work-dir <dir>
 *
 * Output: digest lines, one line per metric with its unit, then one
 * JSON object {"correct", "attempted", "failed", "metrics"} as the
 * last line. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer split.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.h"

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "fleet_2k|chat_prefix_100|design_sweep|live_http --seed N "
                 "--seconds S --trace 0|1 [--server PATH] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    options.workDir = ".";
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--server")
            options.serverPath = value;
        else if (flag == "--work-dir")
            options.workDir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!have_trace || options.seconds <= 0)
        usage("--trace and a positive --seconds are required");

    perfbench::Outcome outcome;
    try {
        if (options.workload == "fleet_2k")
            outcome = perfbench::runFleet2k(options);
        else if (options.workload == "chat_prefix_100")
            outcome = perfbench::runChatPrefix100(options);
        else if (options.workload == "design_sweep")
            outcome = perfbench::runDesignSweep(options);
        else if (options.workload == "live_http")
            outcome = perfbench::runLiveHttp(options);
        else
            usage(("unknown workload '" + options.workload + "'").c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }

    for (const auto& line : outcome.digest)
        std::printf("%s\n", line.c_str());
    std::printf("%s: %llu ops attempted, %llu failed (%s run)\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                options.trace ? "traced" : "untraced");
    for (const auto& m : outcome.metrics) {
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }

    std::string json = "{\"correct\": ";
    json += outcome.correct && outcome.failed == 0 && outcome.attempted > 0
                ? "true"
                : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const auto& m = outcome.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
