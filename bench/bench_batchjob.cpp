/**
 * @file
 * Regenerates paper SVI-E: cluster design for batch jobs - stressing
 * the iso-power throughput-optimized clusters far past their SLOs
 * and comparing token-generation throughput per dollar (RPS/$).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace {

/**
 * Sustained throughput: requests/s until 95% of the batch finished.
 * A makespan-based rate would be dominated by the handful of
 * longest-generation stragglers draining at tiny batch sizes.
 */
double
sustainedRps(const splitwise::core::RunReport& report)
{
    using namespace splitwise;
    std::vector<sim::TimeUs> completions;
    sim::TimeUs first_arrival = sim::kTimeNever;
    for (const auto& r : report.requests.results()) {
        completions.push_back(r.arrival + sim::msToUs(r.e2eMs));
        first_arrival = std::min(first_arrival, r.arrival);
    }
    if (completions.empty())
        return 0.0;
    std::sort(completions.begin(), completions.end());
    const std::size_t idx =
        static_cast<std::size_t>(0.95 * (completions.size() - 1));
    const double span = sim::usToSeconds(completions[idx] - first_arrival);
    return span > 0 ? 0.95 * static_cast<double>(completions.size()) / span
                    : 0.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_batchjob",
        "Batch-job throughput on mixed request sizes",
        bench::kSinks | bench::kPolicy);
    using metrics::Table;
    using provision::DesignKind;

    // Batch load: far beyond the interactive operating point.
    const double stress_rps = 200.0;
    const auto trace =
        bench::makeTrace(workload::conversation(), stress_rps, 30);

    bench::banner("SVI-E: batch-job throughput per cost (stressed "
                  "iso-power clusters, conversation)");
    Table table({"design", "pools", "sustained RPS", "tokens/s",
                 "cost ($/hr)", "RPS per $/hr", "mixed routes"});
    for (DesignKind kind : provision::allDesignKinds()) {
        const core::ClusterDesign design =
            bench::isoPowerDesign(kind, "conversation");
        const auto report = core::run(
            bench::cliRunOptions(model::llama2_70b(), design, trace));
        const double rps = sustainedRps(report);
        const std::string pools =
            design.splitwise ? std::to_string(design.numPrompt) + "P+" +
                                   std::to_string(design.numToken) + "T"
                             : std::to_string(design.numPrompt) + "P/T";
        table.addRow({
            design.name,
            pools,
            Table::fmt(rps, 1),
            Table::fmt(report.requests.tokenThroughput(), 0),
            Table::fmt(report.footprint.costPerHour, 0),
            Table::fmt(rps / report.footprint.costPerHour, 3),
            std::to_string(report.mixedRoutes),
        });
    }
    table.print();

    std::printf("\nPaper: under stress Splitwise devolves into the"
                " iso-count baseline (everything mixed-batches);"
                " A100-based designs win on RPS/$ (0.89 vs 0.75 for"
                " H100-based)\n");
    return 0;
}
