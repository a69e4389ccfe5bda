/**
 * @file
 * Chaos soak: an iso-power Splitwise-HH cluster serving the
 * conversation trace under a randomized (but seeded) fault storm -
 * transient machine crashes with rejoin, straggler windows, NIC
 * fault/degradation windows - versus the same cluster fault-free.
 *
 * Every request must be accounted for: completed or explicitly shed
 * by admission control. The binary exits non-zero if any request
 * falls through the cracks, so it doubles as a soak check.
 *
 *   bench_chaos [storm_seed] [--runs=N] [--jobs=N] [--short]
 *               [--trace-out=...] [--timeseries-out=...]
 *
 * `--runs N` soaks N consecutive storm seeds (seed, seed+1, ...)
 * concurrently across `--jobs` workers; `--short` is the reduced CI
 * smoke variant.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/fault_plan.h"

namespace {

/** One soak run: the fault-free control or one storm seed. */
struct ChaosRun {
    bool faulted = false;
    std::uint64_t seed = 0;
};

/** Everything a worker produces for the serial reporting pass. */
struct ChaosResult {
    splitwise::core::RunReport report;
    std::vector<std::string> row;
    bool accounted = true;
    bool telemetryConsistent = true;
    std::string telemetryNote;
};

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    using metrics::Table;

    auto parser = bench::benchParser(
        "bench_chaos",
        "Chaos soak: iso-power Splitwise-HH under a seeded fault storm "
        "vs fault-free, with full request accounting",
        bench::kSinks | bench::kJobs | bench::kShort);
    int storm_runs = 1;
    parser.addInt("--runs", &storm_runs,
                  "consecutive storm seeds to soak (seed, seed+1, ...)");
    std::string seed_arg;
    parser.addPositional("storm_seed", &seed_arg,
                         "base storm seed (default 2024)");
    parser.parse(argc, argv);
    if (storm_runs < 1)
        parser.fail("--runs must be >= 1");
    const bench::BenchArgs& args = bench::benchArgs();

    std::uint64_t seed = 2024;
    if (!seed_arg.empty()) {
        try {
            std::size_t used = 0;
            seed = std::stoull(seed_arg, &used);
            if (used != seed_arg.size())
                throw std::invalid_argument(seed_arg);
        } catch (const std::exception&) {
            parser.fail("storm_seed: invalid value '" + seed_arg + "'");
        }
    }

    const double trace_seconds = args.shortRun ? 12.0 : 60.0;
    const auto trace =
        bench::makeTrace(workload::conversation(), 70.0, trace_seconds);
    const core::ClusterDesign design = core::splitwiseHH(17, 23);
    const core::SloChecker checker(model::llama2_70b());

    core::FaultStormConfig storm;
    storm.numMachines = design.machines();
    storm.horizonUs = sim::secondsToUs(args.shortRun ? 9.0 : 50.0);
    storm.crashes = args.shortRun ? 2 : 3;
    storm.slowdowns = args.shortRun ? 1 : 3;
    storm.linkFaults = args.shortRun ? 2 : 4;
    storm.linkDegrades = args.shortRun ? 1 : 3;

    // Run 0 is the fault-free control; runs 1..N are storm seeds.
    std::vector<ChaosRun> runs;
    runs.push_back({false, 0});
    for (int i = 0; i < storm_runs; ++i)
        runs.push_back({true, seed + static_cast<std::uint64_t>(i)});

    bench::banner("Chaos soak: Splitwise-HH 17P+23T, conversation @ "
                  "70 RPS, " + std::to_string(storm_runs) +
                  " storm(s) from seed " + std::to_string(seed));
    for (const ChaosRun& run : runs) {
        if (!run.faulted)
            continue;
        const core::FaultPlan plan = core::makeFaultStorm(storm, run.seed);
        std::printf("storm seed %llu:\n",
                    static_cast<unsigned long long>(run.seed));
        for (const auto& event : plan.events) {
            std::printf("  t=%5.1fs  %-12s machine %2d  (%.1fs window",
                        sim::usToSeconds(event.at),
                        core::faultKindName(event.kind), event.machineId,
                        sim::usToSeconds(event.durationUs));
            if (event.kind == core::FaultKind::kSlowdown)
                std::printf(", %.1fx slower", event.factor);
            if (event.kind == core::FaultKind::kLinkDegrade)
                std::printf(", %.0f%% bandwidth", 100.0 * event.factor);
            std::printf(")\n");
        }
    }

    core::SimConfig config;
    config.cls.shedQueuedTokensBound = 500000;
    config.kvRetry.maxRetries = 4;
    config.kvRetry.backoffBaseUs = sim::msToUs(20.0);
    bench::applyTelemetryCli(config);
    core::enableSinks(config, args.sinks);

    // Fan the runs out; each owns its cluster, fault plan, and
    // telemetry sinks, so reports are identical at every job count.
    sim::RunPool pool(bench::effectiveJobs());
    const std::vector<ChaosResult> results =
        pool.map(runs, [&](const ChaosRun& run, std::size_t index) {
            ChaosResult res;
            core::Cluster cluster(model::llama2_70b(), design, config);
            if (run.faulted) {
                const core::FaultPlan plan =
                    core::makeFaultStorm(storm, run.seed);
                core::FaultInjector injector(cluster);
                injector.apply(plan);
            }
            res.report = cluster.run(trace);
            const auto slo =
                checker.evaluate(res.report.requests, core::SloSet{});
            res.row = {
                run.faulted ? "storm " + std::to_string(run.seed)
                            : "fault-free",
                Table::fmt(res.report.throughputRps(), 1),
                Table::fmt(res.report.requests.ttftStats().p50, 0),
                Table::fmt(res.report.requests.ttftStats().p99, 0),
                Table::fmt(res.report.requests.tbtStats().p50, 1),
                Table::fmt(res.report.requests.tbtStats().p99, 1),
                std::to_string(res.report.requests.completed()),
                std::to_string(res.report.rejected),
                slo.pass ? "pass" : "FAIL " + slo.violation,
            };
            if (res.report.requests.completed() + res.report.rejected !=
                trace.size())
                res.accounted = false;

            // Telemetry self-checks: a parseable trace needs matched
            // begin/end pairs, and the sampled cumulative token
            // counter must land on the aggregate the report derives
            // throughput from (the final sample row is taken at
            // end-of-run, so any disagreement means the sampler lost
            // updates).
            if (auto* rec = cluster.traceRecorder()) {
                if (rec->openSpans() != 0) {
                    res.telemetryNote =
                        std::to_string(rec->openSpans()) +
                        " trace spans left open";
                    res.telemetryConsistent = false;
                }
            }
            if (!res.report.timeseries.empty()) {
                const auto sampled =
                    res.report.timeseries.column("tokens_generated");
                const double aggregate = static_cast<double>(
                    res.report.promptPool.tokensGenerated +
                    res.report.tokenPool.tokensGenerated);
                const double err =
                    aggregate > 0.0
                        ? std::abs(sampled.back() - aggregate) / aggregate
                        : std::abs(sampled.back());
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "sampled %.0f vs aggregate %.0f generated "
                              "tokens (%.3f%% off)",
                              sampled.back(), aggregate, 100.0 * err);
                res.telemetryNote = buf;
                if (err > 0.01)
                    res.telemetryConsistent = false;
            }
            core::writeSinks(cluster, res.report, args.sinks,
                             static_cast<int>(index));
            return res;
        });

    Table table({"run", "thpt (rps)", "TTFT p50 (ms)", "TTFT p99 (ms)",
                 "TBT p50 (ms)", "TBT p99 (ms)", "completed", "shed",
                 "SLO"});
    bool accounted = true;
    bool telemetryConsistent = true;
    for (const ChaosResult& res : results) {
        table.addRow(res.row);
        accounted = accounted && res.accounted;
        telemetryConsistent =
            telemetryConsistent && res.telemetryConsistent;
        if (!res.telemetryNote.empty())
            std::printf("timeseries cross-check: %s\n",
                        res.telemetryNote.c_str());
    }
    table.print();

    for (std::size_t i = 1; i < results.size(); ++i) {
        const auto& chaos = results[i].report;
        std::printf("\nrecovery under storm %llu: %llu rejoins, %llu "
                    "restarts, %llu transfer faults (%llu retried, %llu "
                    "aborted), %llu timeouts, %llu degraded transfers, "
                    "%llu shed\n",
                    static_cast<unsigned long long>(runs[i].seed),
                    static_cast<unsigned long long>(chaos.rejoins),
                    static_cast<unsigned long long>(chaos.restarts),
                    static_cast<unsigned long long>(
                        chaos.transfers.transferFaults),
                    static_cast<unsigned long long>(
                        chaos.transfers.transferRetries),
                    static_cast<unsigned long long>(
                        chaos.transfers.transferAborts),
                    static_cast<unsigned long long>(
                        chaos.transfers.transferTimeouts),
                    static_cast<unsigned long long>(
                        chaos.transfers.degradedTransfers),
                    static_cast<unsigned long long>(chaos.rejected));
    }
    std::printf("crashed machines rejoin their pool after the downtime; "
                "faulted KV transfers retry with exponential backoff and "
                "only restart from scratch once the budget is spent.\n");

    if (!accounted) {
        std::printf("\nERROR: requests lost - completed + shed != "
                    "submitted (%zu)\n", trace.size());
        return 1;
    }
    if (!telemetryConsistent) {
        std::printf("\nERROR: telemetry self-check failed\n");
        return 1;
    }
    return 0;
}
