/**
 * @file
 * Million-request scale benchmark: simulation throughput and memory
 * footprint of the streaming ingestion path vs the naive materialized
 * baseline.
 *
 * Two modes per shape (requests x machines):
 *
 *   streamed      The production path: arrivals pulled one at a time
 *                 from a GenTraceStream, retired request slots
 *                 recycled through the RequestPool, latencies folded
 *                 into quantile sketches. Memory is O(in-flight).
 *   materialized  The pre-pool baseline: the full trace vector built
 *                 up front, slot recycling off (every request keeps
 *                 its slot forever), exact per-request latency
 *                 records. Memory is O(total arrivals).
 *
 * Output is one machine-readable line per run:
 *
 *   SCALE_BENCH mode=<m> requests=<n> machines=<c> completed=<n> \
 *       wall_seconds=<s> requests_per_sec=<r> events_per_sec=<r> \
 *       peak_rss_kb=<kb> live_slot_high_water=<n>
 *
 * peak_rss_kb is the process-wide getrusage high-water mark, so a
 * same-process sweep only reports a meaningful RSS for its largest
 * shape so far; tools/perf_baseline.sh runs one shape per process and
 * commits the numbers to BENCH_PR8.json, which CI's scale-smoke step
 * gates against.
 *
 * --budget-mb turns the memory contract into an exit code: the run
 * fails if peak RSS exceeds the budget.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace splitwise;

long
peakRssKb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;  // KB on Linux.
}

struct ScaleArgs {
    std::string mode = "streamed";
    std::uint64_t requests = 0;  // 0 = built-in sweep
    int machines = 0;
    double budgetMb = 0.0;  // 0 = no budget enforcement
};

/** Coding-ratio Splitwise-HH design over @p machines total machines. */
core::ClusterDesign
scaleDesign(int machines)
{
    // The paper's coding split is 35P/5T (7:1); keep that ratio at
    // every sweep size.
    const int token = std::max(1, machines / 8);
    const int prompt = machines - token;
    return provision::makeDesign(provision::DesignKind::kSplitwiseHH, prompt,
                                 token);
}

struct ShapeResult {
    std::uint64_t completed = 0;
    std::uint64_t submitted = 0;
    std::uint64_t events = 0;
    std::size_t slotHighWater = 0;
    double wallSeconds = 0.0;
    std::uint64_t rejected = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t memoryStalls = 0;
    sim::TimeUs simulatedUs = 0;
};

/**
 * Run one (mode, requests, machines) shape. Arrivals are uniform at
 * ~1.4 requests/s per machine - comfortably inside the coding
 * design's capacity, so queues stay bounded, the live set is a true
 * O(in-flight) working set, and every sweep size runs the cluster at
 * comparable utilization. The request count is exact.
 */
ShapeResult
runShape(const std::string& mode, std::uint64_t requests, int machines)
{
    const double rps = 1.4 * machines;
    const auto interval =
        static_cast<sim::TimeUs>(sim::secondsToUs(1.0) / rps);

    core::SimConfig config;
    // Random routing, not JSQ: at thousands of machines the JSQ load
    // signal goes stale over a KV-transfer window, herding arrival
    // bursts onto one token machine until its KV fills (memory
    // stalls, runaway queues). Random keeps the live set a true
    // O(in-flight) working set at every sweep size.
    config.cls.routing = core::RoutingPolicy::kRandom;
    const bool streamed = mode == "streamed";
    // Streamed mode is the bounded-memory production path; the
    // materialized baseline deliberately keeps the pre-pool
    // O(total-arrivals) footprint for the A/B comparison.
    config.sketchLatencies = streamed;
    config.requestRecycling = streamed;

    core::Cluster cluster(model::llama2_70b(), scaleDesign(machines), config);
    workload::TraceGenerator gen(workload::coding(), /*seed=*/42);

    using Clock = std::chrono::steady_clock;
    ShapeResult result;
    if (streamed) {
        auto stream =
            gen.streamUniform(static_cast<std::size_t>(requests), interval);
        const auto t0 = Clock::now();
        const core::RunReport report = cluster.run(*stream);
        result.wallSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        result.completed = report.requests.completed();
        result.submitted = report.submitted;
        result.rejected = report.rejected;
        result.preemptions = report.preemptions;
        result.memoryStalls = report.transfers.memoryStalls;
        result.simulatedUs = report.simulatedUs;
    } else {
        const workload::Trace trace =
            gen.generateUniform(static_cast<std::size_t>(requests), interval);
        const auto t0 = Clock::now();
        const core::RunReport report = cluster.run(trace);
        result.wallSeconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        result.completed = report.requests.completed();
        result.submitted = report.submitted;
        result.rejected = report.rejected;
        result.preemptions = report.preemptions;
        result.memoryStalls = report.transfers.memoryStalls;
        result.simulatedUs = report.simulatedUs;
    }
    result.events = cluster.simulator().executedEvents();
    result.slotHighWater = cluster.requestPool().highWater();
    return result;
}

/** Print the SCALE_BENCH line; false if the RSS budget was blown. */
bool
report(const std::string& mode, std::uint64_t requests, int machines,
       const ShapeResult& result, double budget_mb)
{
    const long rss_kb = peakRssKb();
    const double wall = result.wallSeconds > 0 ? result.wallSeconds : 1e-9;
    std::printf("SCALE_BENCH mode=%s requests=%llu machines=%d "
                "completed=%llu wall_seconds=%.3f requests_per_sec=%.0f "
                "events_per_sec=%.0f peak_rss_kb=%ld "
                "live_slot_high_water=%zu\n",
                mode.c_str(), static_cast<unsigned long long>(requests),
                machines,
                static_cast<unsigned long long>(result.completed), wall,
                static_cast<double>(result.submitted) / wall,
                static_cast<double>(result.events) / wall, rss_kb,
                result.slotHighWater);
    std::printf("SCALE_DIAG rejected=%llu preemptions=%llu "
                "memory_stalls=%llu simulated_s=%.1f\n",
                static_cast<unsigned long long>(result.rejected),
                static_cast<unsigned long long>(result.preemptions),
                static_cast<unsigned long long>(result.memoryStalls),
                static_cast<double>(result.simulatedUs) / 1e6);
    if (budget_mb > 0 && static_cast<double>(rss_kb) > budget_mb * 1024.0) {
        std::printf("BUDGET_EXCEEDED peak_rss_kb=%ld budget_mb=%.0f\n",
                    rss_kb, budget_mb);
        return false;
    }
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    ScaleArgs scale;
    bench::ArgParser parser = bench::benchParser(
        "bench_scale",
        "simulation throughput and peak RSS at 10^5..10^6 requests on "
        "10^2..2*10^3 machines, streamed vs materialized ingestion",
        bench::kShort);
    parser.addString("--mode", &scale.mode,
                     "ingestion path: streamed (bounded memory) or "
                     "materialized (naive full-trace baseline)");
    parser.addUint64("--requests", &scale.requests,
                     "run exactly one shape with this many requests "
                     "(default: built-in sweep)");
    parser.addInt("--machines", &scale.machines,
                  "machine count for the single-shape run");
    parser.addDouble("--budget-mb", &scale.budgetMb,
                     "fail the run if peak RSS exceeds this many MB");
    parser.addValidator([&scale] {
        if (scale.mode != "streamed" && scale.mode != "materialized")
            sim::fatal("--mode must be streamed or materialized");
        if (scale.requests > 0 && scale.machines <= 0)
            sim::fatal("--requests needs --machines");
        if (scale.budgetMb < 0)
            sim::fatal("--budget-mb must be >= 0");
    });
    parser.parse(argc, argv);

    bench::banner("scale: streaming ingestion + pooled request slots");

    bool ok = true;
    if (scale.requests > 0) {
        // Single-shape mode: one process, one shape - the form
        // perf_baseline.sh uses so peak_rss_kb is per-shape.
        const ShapeResult result =
            runShape(scale.mode, scale.requests, scale.machines);
        ok = report(scale.mode, scale.requests, scale.machines, result,
                    scale.budgetMb);
    } else {
        std::vector<std::uint64_t> request_counts;
        std::vector<int> machine_counts;
        if (bench::benchArgs().shortRun) {
            request_counts = {50'000};
            machine_counts = {100};
        } else {
            request_counts = {100'000, 1'000'000};
            machine_counts = {100, 2'000};
        }
        for (const int machines : machine_counts) {
            for (const std::uint64_t requests : request_counts) {
                const ShapeResult result =
                    runShape(scale.mode, requests, machines);
                ok = report(scale.mode, requests, machines, result,
                            scale.budgetMb) &&
                     ok;
            }
        }
    }
    return ok ? 0 : 1;
}
