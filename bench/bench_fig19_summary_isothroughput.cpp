/**
 * @file
 * Regenerates paper Fig. 19: summary of iso-throughput cluster
 * designs - (a) power-optimized and (b) cost-optimized - normalized
 * to Baseline-H100, at 1/5 of the paper's scale.
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

void
summarize(const char* title, double target_rps, bool optimize_power)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    provision::ProvisionerOptions options;
    options.traceDuration = sim::secondsToUs(20);
    options.promptFractions = {0.25, 0.4, 0.5, 0.65, 0.8};
    options.jobs = bench::effectiveJobs();
    provision::Provisioner prov(model::llama2_70b(),
                                workload::conversation(), options);

    bench::banner(title);
    Table table({"design", "pools", "cost ($/hr)", "power (kW)",
                 "machines", "vs Baseline-H100"});
    double h100_objective = 0.0;
    for (DesignKind kind : provision::allDesignKinds()) {
        const provision::Optimum opt =
            optimize_power
                ? prov.isoThroughputPowerOptimized(kind, target_rps)
                : prov.isoThroughputCostOptimized(kind, target_rps);
        if (!opt.feasible) {
            table.addRow({designKindName(kind), "-", "-", "-", "-",
                          "infeasible"});
            continue;
        }
        const double objective = optimize_power
                                     ? opt.footprint.powerWatts
                                     : opt.footprint.costPerHour;
        if (kind == DesignKind::kBaselineH100)
            h100_objective = objective;
        const std::string pools =
            opt.design.splitwise
                ? std::to_string(opt.design.numPrompt) + "P+" +
                      std::to_string(opt.design.numToken) + "T"
                : std::to_string(opt.design.numPrompt) + "P/T";
        table.addRow({
            opt.design.name,
            pools,
            Table::fmt(opt.footprint.costPerHour, 0),
            Table::fmt(opt.footprint.powerWatts / 1e3, 1),
            std::to_string(opt.footprint.machines),
            h100_objective > 0
                ? Table::fmt(objective / h100_objective, 2) + "x"
                : "-",
        });
    }
    table.print();
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig19_summary_isothroughput",
        "Paper Fig. 19: iso-throughput design summary",
        bench::kJobs);
    const double target_rps = 70.0;  // the paper's target throughput
    summarize("Fig. 19a: iso-throughput power-optimized (conversation, "
              "70 RPS)",
              target_rps, true);
    std::printf("Paper: Splitwise-HHcap matches Baseline-H100 throughput"
                " at 25%% lower power, same cost and space\n");

    summarize("Fig. 19b: iso-throughput cost-optimized (conversation, "
              "70 RPS)",
              target_rps, false);
    std::printf("Paper: Splitwise-AA matches Baseline-H100 throughput at"
                " 25%% lower cost\n");
    return 0;
}
