#ifndef SPLITWISE_BENCH_BENCH_COMMON_H_
#define SPLITWISE_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared helpers for the figure/table regeneration binaries.
 *
 * Cluster-scale benches run at the paper's full scale: the iso-power
 * budget is 40 DGX-H100 machines (70 DGX-A100s). The event-driven
 * simulator covers a 40-machine, 100+ RPS cluster trace in well
 * under a second, so every bench still finishes in seconds.
 *
 * Every bench accepts the shared flags (registered on the typed
 * bench::ArgParser by benchParser, applied by cliRunOptions):
 *
 *   --trace-out=PATH        Perfetto/Chrome trace JSON per cluster
 *                           run (open in ui.perfetto.dev).
 *   --timeseries-out=PATH   Sampled cluster metrics as CSV.
 *   --breakdown-out=PATH    Latency-attribution JSON per cluster run
 *                           (per-phase breakdown + SLO-offender
 *                           exemplar timelines); implies span
 *                           tracking. No-op in telemetry-off builds.
 *   --exemplars=K           Worst-offender timelines retained per run
 *                           (default 3).
 *   --spans=MODE            Span tracking: auto (follow
 *                           --breakdown-out), on (track without
 *                           writing files; the perf probe's A/B
 *                           switch), or off.
 *   --sample-interval-ms=N  Sampling grid (default 1000 ms);
 *                           implies sampling when --timeseries-out
 *                           is given.
 *   --jobs=N                Concurrent simulations for multi-run
 *                           benches (default hardware_concurrency;
 *                           --jobs=1 is the exact serial path).
 *   --policy=NAME           Scheduling policy, resolved through
 *                           sched::parsePolicyKind() (default,
 *                           prefix); unset keeps the bench's own
 *                           choice.
 *   --runs=N                Repetition count for benches that soak
 *                           over seeds (bench_chaos).
 *   --short                 Reduced-duration smoke variant for CI.
 *
 * Benches that run several clusters suffix the path with the run
 * index before the extension (trace.json, trace.1.json, ...).
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/arg_parser.h"
#include "core/cluster.h"
#include "core/designs.h"
#include "core/run.h"
#include "core/slo.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "provision/provisioner.h"
#include "sched/policy.h"
#include "sim/log.h"
#include "sim/run_pool.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::bench {

/** Scale factor applied to the paper's cluster sizes (1 = full). */
inline constexpr int kScaleDown = 1;

/** The paper's iso-power budget (40 DGX-H100), scaled. */
inline double
isoPowerBudgetWatts()
{
    return 40.0 / kScaleDown * hw::dgxH100().provisionedPowerWatts();
}

/** The matching iso-cost budget (40 DGX-H100 rental), scaled. */
inline double
isoCostBudgetPerHour()
{
    return 40.0 / kScaleDown * hw::dgxH100().costPerHour;
}

/**
 * Iso-power throughput-optimized pool sizes per design under the
 * 40-DGX-H100 power budget.
 *
 * Coding splits land on the paper's provisioning choices (Fig. 16
 * legend: Splitwise-HH 35P/5T). Conversation splits are re-derived
 * from this reproduction's calibrated capacity model, which sizes
 * token pools larger than the paper's legend (25P/15T) because the
 * calibrated decode batches saturate the TBT SLO earlier; see
 * EXPERIMENTS.md for the divergence note.
 */
inline core::ClusterDesign
isoPowerDesign(provision::DesignKind kind, const std::string& workload)
{
    using provision::DesignKind;
    const bool coding = workload == "coding";
    switch (kind) {
      case DesignKind::kBaselineA100:
        return provision::makeDesign(kind, 70, 0);
      case DesignKind::kBaselineH100:
        return provision::makeDesign(kind, 40, 0);
      case DesignKind::kSplitwiseAA:
        return coding ? provision::makeDesign(kind, 60, 10)
                      : provision::makeDesign(kind, 35, 35);
      case DesignKind::kSplitwiseHH:
        // Paper: coding (35P, 5T).
        return coding ? provision::makeDesign(kind, 35, 5)
                      : provision::makeDesign(kind, 17, 23);
      case DesignKind::kSplitwiseHA:
        return coding ? provision::makeDesign(kind, 34, 9)
                      : provision::makeDesign(kind, 19, 36);
      case DesignKind::kSplitwiseHHcap:
        return coding ? provision::makeDesign(kind, 33, 8)
                      : provision::makeDesign(kind, 17, 29);
    }
    return provision::makeDesign(kind, 40, 0);
}

/** Deterministic workload trace for bench runs. */
inline workload::Trace
makeTrace(const workload::Workload& w, double rps, double seconds,
          std::uint64_t seed = 42)
{
    workload::TraceGenerator gen(w, seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

/** Output/parallelism options shared by every bench binary. */
struct BenchArgs {
    /** Perfetto trace destination; empty disables tracing. */
    std::string traceOut;
    /** Time-series CSV destination; empty disables sampling. */
    std::string timeseriesOut;
    /** Attribution JSON destination; empty disables span tracking. */
    std::string breakdownOut;
    /**
     * Span tracking override (`--spans`): "auto" follows
     * --breakdown-out, "on" tracks without writing attribution files
     * (how the perf probe prices tracing), "off" forces it off.
     */
    std::string spans = "auto";
    /** SLO-offender exemplar timelines retained (`--exemplars`). */
    int exemplars = 3;
    /** Sampling grid spacing as parsed (`--sample-interval-ms`). */
    double sampleIntervalMs = 1000.0;
    /** Sampling grid spacing (derived from sampleIntervalMs). */
    sim::TimeUs sampleIntervalUs = sim::msToUs(1000.0);
    /** Worker count for multi-run benches; 0 = hardware default. */
    int jobs = 0;
    /** Repetition count for seed-soak benches. */
    int runs = 1;
    /**
     * Scheduling-policy name (`--policy`), resolved through
     * sched::parsePolicyKind(); empty keeps the bench's own
     * SimConfig::policy untouched.
     */
    std::string policy;
    /** Reduced-duration smoke variant (`--short`). */
    bool shortRun = false;
    /**
     * Cluster runs completed so far (output-file suffixing). Atomic
     * because parallel benches finish runs concurrently; drivers
     * that need deterministic file names pass an explicit index to
     * writeTelemetryOutputs instead.
     */
    std::atomic<int> runIndex{0};

    bool any() const
    {
        return !traceOut.empty() || !timeseriesOut.empty() ||
               !breakdownOut.empty();
    }
};

/** The process-wide parsed bench arguments. */
inline BenchArgs&
benchArgs()
{
    static BenchArgs args;
    return args;
}

/**
 * Build the bench's ArgParser with the shared flags pre-registered
 * (see the file comment). The bench adds its own flags, then calls
 * parse(argc, argv); `--help` and unknown-flag handling come for
 * free.
 */
inline ArgParser
benchParser(const std::string& program, const std::string& summary)
{
    ArgParser parser(program, summary);
    BenchArgs& args = benchArgs();
    parser.addString("--trace-out", &args.traceOut,
                     "write a Perfetto/Chrome trace JSON per cluster run");
    parser.addString("--timeseries-out", &args.timeseriesOut,
                     "write sampled cluster metrics as CSV");
    parser.addString("--breakdown-out", &args.breakdownOut,
                     "write latency-attribution JSON per cluster run");
    parser.addInt("--exemplars", &args.exemplars,
                  "SLO-offender exemplar timelines retained per run");
    parser.addString("--spans", &args.spans,
                     "span tracking: auto (follow --breakdown-out), "
                     "on, or off");
    parser.addDouble("--sample-interval-ms", &args.sampleIntervalMs,
                     "time-series sampling grid in milliseconds");
    parser.addInt("--jobs", &args.jobs,
                  "concurrent simulations (0 = hardware default; "
                  "1 = exact serial path)");
    parser.addInt("--runs", &args.runs,
                  "repetition count for seed-soak benches");
    parser.addString("--policy", &args.policy,
                     "scheduling policy (" + sched::policyNames() +
                         "; default: the bench's own)");
    parser.addFlag("--short", &args.shortRun,
                   "reduced-duration smoke variant for CI");
    parser.addValidator([&args] {
        if (args.sampleIntervalMs <= 0)
            sim::fatal("--sample-interval-ms must be positive");
        args.sampleIntervalUs = sim::msToUs(args.sampleIntervalMs);
        if (args.jobs < 0)
            sim::fatal("--jobs must be >= 0 (0 = hardware default)");
        if (args.runs < 1)
            sim::fatal("--runs must be >= 1");
        if (args.exemplars < 0)
            sim::fatal("--exemplars must be >= 0");
        if (args.spans != "auto" && args.spans != "on" &&
            args.spans != "off")
            sim::fatal("--spans must be auto, on, or off");
        if (args.spans == "off" && !args.breakdownOut.empty())
            sim::fatal("--spans=off contradicts --breakdown-out");
        sched::PolicyKind kind = sched::PolicyKind::kDefault;
        if (!args.policy.empty() &&
            !sched::parsePolicyKind(args.policy, &kind))
            sim::fatal("--policy: unknown policy '" + args.policy +
                       "' (known: " + sched::policyNames() + ")");
    });
    return parser;
}

/**
 * Parse a bench command line that has no bench-specific flags: the
 * one-liner for the majority of figure/table binaries.
 */
inline void
parseBenchArgs(int argc, char** argv, const std::string& program,
               const std::string& summary)
{
    benchParser(program, summary).parse(argc, argv);
}

/** The resolved `--jobs` value: explicit flag or hardware default. */
inline int
effectiveJobs()
{
    const BenchArgs& args = benchArgs();
    return args.jobs > 0 ? args.jobs : sim::RunPool::defaultJobs();
}

/**
 * Apply an explicit `--policy` selection to @p config; without the
 * flag the bench's own policy choice stands.
 */
inline void
applyPolicyCli(core::SimConfig& config)
{
    const BenchArgs& args = benchArgs();
    if (args.policy.empty())
        return;
    if (!sched::parsePolicyKind(args.policy, &config.policy.kind))
        sim::fatal("--policy: unknown policy '" + args.policy + "'");
}

/** Turn the parsed bench flags into per-run telemetry switches. */
inline void
applyTelemetryCli(core::SimConfig& config)
{
    const BenchArgs& args = benchArgs();
    if (!args.traceOut.empty())
        config.telemetry.traceEnabled = true;
    if (!args.timeseriesOut.empty())
        config.telemetry.sampleIntervalUs = args.sampleIntervalUs;
    if (!args.breakdownOut.empty() || args.spans == "on")
        config.telemetry.spanTracking = true;
    if (args.spans == "off")
        config.telemetry.spanTracking = false;
    config.telemetry.exemplarK = args.exemplars;
}

/**
 * The parsed bench CLI as core run inputs: telemetry sinks (suffixed
 * with @p index for multi-run benches) plus the sampling grid applied
 * to @p sim.
 */
inline core::RunSinks
cliRunSinks(core::SimConfig& sim, int index = 0)
{
    const BenchArgs& args = benchArgs();
    core::RunSinks sinks;
    if (!args.traceOut.empty())
        sinks.tracePath = core::indexedSinkPath(args.traceOut, index);
    if (!args.timeseriesOut.empty()) {
        sinks.timeseriesPath =
            core::indexedSinkPath(args.timeseriesOut, index);
        sim.telemetry.sampleIntervalUs = args.sampleIntervalUs;
    }
    if (!args.breakdownOut.empty())
        sinks.breakdownPath = core::indexedSinkPath(args.breakdownOut, index);
    sim.telemetry.exemplarK = args.exemplars;
    return sinks;
}

/**
 * Write one run's telemetry files (when requested) under an explicit
 * run index. Safe to call from RunPool workers: distinct indices
 * write distinct files and nothing shared is mutated.
 */
inline void
writeTelemetryOutputs(core::Cluster& cluster, const core::RunReport& report,
                      int index)
{
    BenchArgs& args = benchArgs();
    if (!args.any())
        return;
    if (!args.traceOut.empty() && cluster.traceRecorder()) {
        const auto path = core::indexedSinkPath(args.traceOut, index);
        cluster.traceRecorder()->writeFile(path);
        std::printf("wrote trace %s (%zu events)\n", path.c_str(),
                    cluster.traceRecorder()->eventCount());
    }
    if (!args.timeseriesOut.empty() && !report.timeseries.empty()) {
        const auto path = core::indexedSinkPath(args.timeseriesOut, index);
        report.timeseries.writeCsv(path);
        std::printf("wrote timeseries %s (%zu rows)\n", path.c_str(),
                    report.timeseries.rows.size());
    }
    if (!args.breakdownOut.empty() && cluster.spanTracker()) {
        const auto path = core::indexedSinkPath(args.breakdownOut, index);
        const std::string json = cluster.spanTracker()->attributionJson();
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (!file)
            sim::fatal("cannot write breakdown file " + path);
        std::fwrite(json.data(), 1, json.size(), file);
        std::fclose(file);
        std::printf("wrote breakdown %s (%zu requests)\n", path.c_str(),
                    cluster.spanTracker()->completedCount());
    }
}

/**
 * Write the run's telemetry files (when requested) and advance the
 * shared run index so serial multi-run benches produce one file set
 * per run.
 */
inline void
writeTelemetryOutputs(core::Cluster& cluster, const core::RunReport& report)
{
    BenchArgs& args = benchArgs();
    if (!args.any())
        return;
    writeTelemetryOutputs(cluster, report,
                          args.runIndex.fetch_add(1));
}

/**
 * The parsed bench CLI as a complete core::RunOptions for one trace:
 * policy selection, telemetry sinks (advancing the shared run index
 * so serial multi-run benches get one file set per run), and the
 * sampling grid. Benches call `core::run(cliRunOptions(...))`.
 */
inline core::RunOptions
cliRunOptions(const model::LlmConfig& llm, const core::ClusterDesign& design,
              const workload::Trace& trace, core::SimConfig config = {})
{
    BenchArgs& args = benchArgs();
    core::RunOptions options;
    options.llm = llm;
    options.design = design;
    options.traces = {trace};
    options.sim = config;
    applyPolicyCli(options.sim);
    const int index = args.any() ? args.runIndex.fetch_add(1) : 0;
    options.sinks = cliRunSinks(options.sim, index);
    return options;
}

/** Print a section banner. */
inline void
banner(const std::string& title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace splitwise::bench

#endif  // SPLITWISE_BENCH_BENCH_COMMON_H_
