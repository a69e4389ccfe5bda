/**
 * @file
 * Capacity planning with the provisioning framework (paper SIV-D):
 * given a workload and a target throughput, find the cheapest and
 * the most power-frugal cluster for each design family.
 *
 *   ./build/examples/capacity_planner [workload] [target_rps]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics/table.h"
#include "provision/provisioner.h"
#include "sim/run_pool.h"

namespace {

/** Parse a positive, finite request rate; false on anything else. */
bool
parseRps(const char* text, double& rps)
{
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0.0)
        return false;
    rps = value;
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    const std::string workload_name = argc > 1 ? argv[1] : "conversation";
    double target_rps = 50.0;
    const bool known_workload =
        workload_name == "coding" || workload_name == "conversation";
    if (!known_workload || (argc > 2 && !parseRps(argv[2], target_rps))) {
        std::fprintf(stderr,
                     "usage: capacity_planner [workload] [target_rps]\n"
                     "  workload: coding or conversation (default)\n"
                     "  target_rps: positive request rate (default 50)\n");
        return 2;
    }

    provision::ProvisionerOptions options;
    options.traceDuration = sim::secondsToUs(20);
    options.promptFractions = {0.25, 0.4, 0.5, 0.65, 0.8};
    options.jobs = sim::RunPool::defaultJobs();
    provision::Provisioner planner(model::llama2_70b(),
                                   workload::workloadByName(workload_name),
                                   options);

    std::printf("Capacity plan for the %s workload at %.0f RPS"
                " (Llama2-70B, Table VI SLOs)\n\n",
                workload_name.c_str(), target_rps);

    Table table({"design", "cheapest pools", "cost ($/hr)",
                 "frugal pools", "power (kW)"});
    for (DesignKind kind : provision::allDesignKinds()) {
        const provision::Optimum cheap =
            planner.isoThroughputCostOptimized(kind, target_rps);
        const provision::Optimum frugal =
            planner.isoThroughputPowerOptimized(kind, target_rps);
        auto pools = [](const provision::Optimum& opt) -> std::string {
            if (!opt.feasible)
                return "infeasible";
            if (!opt.design.splitwise)
                return std::to_string(opt.design.numPrompt) + " machines";
            return std::to_string(opt.design.numPrompt) + "P+" +
                   std::to_string(opt.design.numToken) + "T";
        };
        table.addRow({
            designKindName(kind),
            pools(cheap),
            cheap.feasible ? Table::fmt(cheap.footprint.costPerHour, 0)
                           : "-",
            pools(frugal),
            frugal.feasible ? Table::fmt(frugal.footprint.powerWatts / 1e3, 1)
                            : "-",
        });
    }
    table.print();

    std::printf("\nEach plan meets all nine Table VI SLOs on a synthetic"
                " %.0f-second trace; validate the winner with a longer"
                " run before committing hardware.\n",
                sim::usToSeconds(options.traceDuration));
    return 0;
}
