/**
 * @file
 * Regenerates paper Fig. 18: summary of throughput-optimized cluster
 * designs - (a) iso-power and (b) iso-cost - searched with the
 * provisioning framework and normalized to Baseline-A100, at 1/5 of
 * the paper's budget.
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

void
summarize(const char* title, bool iso_power)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    provision::ProvisionerOptions options;
    options.traceDuration = sim::secondsToUs(20);
    options.rpsTolerance = 4.0;
    options.promptFractions = {0.25, 0.4, 0.5, 0.65, 0.8};
    options.jobs = bench::effectiveJobs();
    provision::Provisioner prov(model::llama2_70b(),
                                workload::conversation(), options);

    bench::banner(title);
    Table table({"design", "pools", "throughput (RPS)", "vs A100",
                 "cost ($/hr)", "power (kW)", "machines"});

    double a100_rps = 0.0;
    std::vector<std::vector<std::string>> rows;
    for (DesignKind kind : provision::allDesignKinds()) {
        const provision::Optimum opt =
            iso_power ? prov.isoPowerThroughputOptimized(
                            kind, bench::isoPowerBudgetWatts())
                      : prov.isoCostThroughputOptimized(
                            kind, bench::isoCostBudgetPerHour());
        if (!opt.feasible) {
            table.addRow({designKindName(kind), "-", "infeasible", "-", "-",
                          "-", "-"});
            continue;
        }
        if (kind == DesignKind::kBaselineA100)
            a100_rps = opt.maxRps;
        const std::string pools =
            opt.design.splitwise
                ? std::to_string(opt.design.numPrompt) + "P+" +
                      std::to_string(opt.design.numToken) + "T"
                : std::to_string(opt.design.numPrompt) + "P/T";
        table.addRow({
            opt.design.name,
            pools,
            Table::fmt(opt.maxRps, 1),
            Table::fmt(a100_rps > 0 ? opt.maxRps / a100_rps : 0.0, 2) + "x",
            Table::fmt(opt.footprint.costPerHour, 0),
            Table::fmt(opt.footprint.powerWatts / 1e3, 1),
            std::to_string(opt.footprint.machines),
        });
    }
    table.print();
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig18_summary_throughput_opt",
        "Paper Fig. 18: throughput-optimized design summary",
        bench::kJobs);
    summarize("Fig. 18a: iso-power throughput-optimized (conversation,"
              " budget = 40x DGX-H100 power)",
              true);
    std::printf("Paper: Splitwise-AA delivers 2.15x Baseline-A100"
                " throughput at the same power and cost; Splitwise-HA"
                " 1.18x at 10%% lower cost\n");

    summarize("Fig. 18b: iso-cost throughput-optimized (conversation,"
              " budget = 40x DGX-H100 rental)",
              false);
    std::printf("Paper: Splitwise-AA gives 1.4x Baseline-H100 throughput"
                " for the same cost (at 25%% more power and 2x space)\n");
    return 0;
}
