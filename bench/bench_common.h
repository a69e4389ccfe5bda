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
 * A bench registers only the shared flag groups it acts on
 * (benchParser's FlagGroup bitmask); any other flag is unknown and
 * ArgParser exits 2.
 *
 *   kSinks   --trace-out, --timeseries-out, --breakdown-out (files
 *            per cluster run; each switches its collection on),
 *            --exemplars=K, --sample-interval-ms=N
 *   kSpans   --spans=auto|on|off (track spans without writing files:
 *            the A/B switch of the span-overhead probes)
 *   kPolicy  --policy=NAME (unset keeps the bench's own choice)
 *   kJobs    --jobs=N (0 = hardware default, 1 = exact serial path)
 *   kShort   --short (reduced-duration smoke variant for CI)
 *
 *   kSinks|kPolicy        batchjob, fig04, fig15, fig16, fig17, fig20;
 *                         fig05 adds kShort
 *   kSinks|kShort         ablation_prefix (the policy is the variable
 *                         it compares)
 *   kSinks|kJobs|kShort   autoscale, chaos
 *   kSpans|kJobs|kShort   dst
 *   kSpans|kJobs          fig12
 *   kJobs                 fig18, fig19
 *   kShort                events, scale
 *   (none)                the other 13 benches
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

/** The shared flag groups; benchParser takes a bitmask of them. */
enum FlagGroup : unsigned {
    kSinks = 1u << 0,
    kSpans = 1u << 1,
    kPolicy = 1u << 2,
    kJobs = 1u << 3,
    kShort = 1u << 4,
};

/** The parsed shared flags (see the file comment). */
struct BenchArgs {
    /** Telemetry file destinations, unsuffixed; empty = disabled. */
    core::RunSinks sinks;
    /** Span tracking override (`--spans`): auto, on or off. */
    std::string spans = "auto";
    /** SLO-offender exemplar timelines retained (`--exemplars`). */
    int exemplars = 3;
    /** Sampling grid spacing (`--sample-interval-ms`). */
    double sampleIntervalMs = 1000.0;
    /** Worker count for multi-run benches; 0 = hardware default. */
    int jobs = 0;
    /**
     * Scheduling-policy name (`--policy`), resolved through
     * sched::parsePolicyKind(); empty keeps the bench's own
     * SimConfig::policy untouched.
     */
    std::string policy;
    /** Reduced-duration smoke variant (`--short`). */
    bool shortRun = false;
    /**
     * Serial cluster runs started so far (output-file suffixing by
     * cliRunOptions). Parallel benches index their files by input
     * index through core::writeSinks instead.
     */
    std::atomic<int> runIndex{0};
};

/** The process-wide parsed bench arguments. */
inline BenchArgs&
benchArgs()
{
    static BenchArgs args;
    return args;
}

/**
 * Build the bench's ArgParser with the shared flags of @p groups
 * (a FlagGroup bitmask) registered and validated. The bench adds its
 * own flags, then calls parse(argc, argv); `--help` and unknown-flag
 * handling come for free.
 */
inline ArgParser
benchParser(const std::string& program, const std::string& summary,
            unsigned groups = 0)
{
    ArgParser parser(program, summary);
    BenchArgs& args = benchArgs();
    if (groups & kSinks) {
        parser.addString("--trace-out", &args.sinks.tracePath,
                         "write a Perfetto/Chrome trace JSON per cluster run");
        parser.addString("--timeseries-out", &args.sinks.timeseriesPath,
                         "write sampled cluster metrics as CSV");
        parser.addString("--breakdown-out", &args.sinks.breakdownPath,
                         "write latency-attribution JSON per cluster run");
        parser.addInt("--exemplars", &args.exemplars,
                      "SLO-offender exemplar timelines retained per run");
        parser.addDouble("--sample-interval-ms", &args.sampleIntervalMs,
                         "time-series sampling grid in milliseconds");
        parser.addValidator([&args] {
            if (args.sampleIntervalMs <= 0)
                sim::fatal("--sample-interval-ms must be positive");
            if (args.exemplars < 0)
                sim::fatal("--exemplars must be >= 0");
        });
    }
    if (groups & kSpans) {
        parser.addString("--spans", &args.spans,
                         "span tracking: auto (the bench's own choice), "
                         "on, or off");
        parser.addValidator([&args] {
            if (args.spans != "auto" && args.spans != "on" &&
                args.spans != "off")
                sim::fatal("--spans must be auto, on, or off");
        });
    }
    if (groups & kJobs) {
        parser.addInt("--jobs", &args.jobs,
                      "concurrent simulations (0 = hardware default; "
                      "1 = exact serial path)");
        parser.addValidator([&args] {
            if (args.jobs < 0)
                sim::fatal("--jobs must be >= 0 (0 = hardware default)");
        });
    }
    if (groups & kPolicy) {
        parser.addString("--policy", &args.policy,
                         "scheduling policy (" + sched::policyNames() +
                             "; default: the bench's own)");
        parser.addValidator([&args] {
            sched::PolicyKind kind = sched::PolicyKind::kDefault;
            if (!args.policy.empty() &&
                !sched::parsePolicyKind(args.policy, &kind))
                sim::fatal("--policy: unknown policy '" + args.policy +
                           "' (known: " + sched::policyNames() + ")");
        });
    }
    if (groups & kShort) {
        parser.addFlag("--short", &args.shortRun,
                       "reduced-duration smoke variant for CI");
    }
    return parser;
}

/**
 * Parse a bench command line that has no bench-specific flags: the
 * one-liner for the majority of figure/table binaries.
 */
inline void
parseBenchArgs(int argc, char** argv, const std::string& program,
               const std::string& summary, unsigned groups = 0)
{
    benchParser(program, summary, groups).parse(argc, argv);
}

/** The resolved `--jobs` value: explicit flag or hardware default. */
inline int
effectiveJobs()
{
    const BenchArgs& args = benchArgs();
    return args.jobs > 0 ? args.jobs : sim::RunPool::defaultJobs();
}

/**
 * Apply the telemetry settings that are not a sink path to @p config:
 * `--spans`, `--exemplars`, and `--sample-interval-ms` (as the grid of
 * a requested time series). Which collection a sink path switches on
 * is core::enableSinks' rule.
 */
inline void
applyTelemetryCli(core::SimConfig& config)
{
    const BenchArgs& args = benchArgs();
    if (!args.sinks.timeseriesPath.empty())
        config.telemetry.sampleIntervalUs = sim::msToUs(args.sampleIntervalMs);
    if (args.spans != "auto")
        config.telemetry.spanTracking = args.spans == "on";
    config.telemetry.exemplarK = args.exemplars;
}

/** The parsed sink paths suffixed with run index @p index. */
inline core::RunSinks
cliRunSinks(int index)
{
    core::RunSinks sinks = benchArgs().sinks;
    for (std::string* path : {&sinks.tracePath, &sinks.timeseriesPath,
                              &sinks.breakdownPath}) {
        if (!path->empty())
            *path = core::indexedSinkPath(*path, index);
    }
    return sinks;
}

/**
 * The parsed bench CLI as a complete core::RunOptions for one trace:
 * policy selection (without `--policy` the bench's own choice
 * stands), telemetry switches, and sinks (advancing the shared run
 * index so serial multi-run benches get one file set per run).
 * Benches call `core::run(cliRunOptions(...))`.
 */
inline core::RunOptions
cliRunOptions(const model::LlmConfig& llm, const core::ClusterDesign& design,
              const workload::Trace& trace, core::SimConfig config = {})
{
    BenchArgs& args = benchArgs();
    const int index = args.sinks.any() ? args.runIndex.fetch_add(1) : 0;
    core::RunOptions options{.llm = llm, .design = design,
                             .traces = {trace}, .sim = config,
                             .faults = {}, .sinks = cliRunSinks(index)};
    if (!args.policy.empty())  // validated by the --policy parser
        sched::parsePolicyKind(args.policy, &options.sim.policy.kind);
    applyTelemetryCli(options.sim);
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
