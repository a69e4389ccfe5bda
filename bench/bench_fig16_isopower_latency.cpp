/**
 * @file
 * Regenerates paper Fig. 16: latency metrics (P50 TTFT/TBT/E2E and
 * the P90 tail TBT) across input loads for iso-power
 * throughput-optimized clusters, for the coding and conversation
 * traces, at 1/5 of the paper's scale (the paper's budget is 40
 * DGX-H100s; ours is 8).
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

void
sweepWorkload(const char* workload_name,
              const std::vector<double>& loads_rps)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    const auto& workload = workload::workloadByName(workload_name);
    const core::SloChecker checker(model::llama2_70b());

    bench::banner(std::string("Fig. 16: iso-power clusters, ") +
                  workload_name + " trace (full paper scale)");
    Table table({"design", "pools", "RPS", "TTFT p50 (ms)",
                 "TBT p50 (ms)", "TBT p90max (ms)", "E2E p50 (s)",
                 "SLO"});
    for (DesignKind kind : provision::allDesignKinds()) {
        const core::ClusterDesign design =
            bench::isoPowerDesign(kind, workload_name);
        const std::string pools =
            design.splitwise ? std::to_string(design.numPrompt) + "P+" +
                                   std::to_string(design.numToken) + "T"
                             : std::to_string(design.numPrompt) + "P/T";
        for (double rps : loads_rps) {
            const auto trace = bench::makeTrace(workload, rps, 40);
            const auto report =
                core::run(bench::cliRunOptions(
                    model::llama2_70b(), design, trace));
            const auto slo = checker.evaluate(report.requests,
                                              core::SloSet{});
            table.addRow({
                design.name,
                pools,
                Table::fmt(rps, 0),
                Table::fmt(report.requests.ttftStats().p50, 0),
                Table::fmt(report.requests.tbtStats().p50, 1),
                Table::fmt(report.requests.maxTbtStats().p90, 0),
                Table::fmt(report.requests.e2eStats().p50 / 1e3, 2),
                slo.pass ? "pass" : "FAIL " + slo.violation,
            });
        }
    }
    table.print();
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig16_isopower_latency",
        "Paper Fig. 16: iso-power latency comparison",
        bench::kSinks | bench::kPolicy);
    // Paper loads: coding up to ~130 RPS, conversation up to ~130.
    sweepWorkload("coding", {40, 70, 100, 130});
    sweepWorkload("conversation", {40, 70, 100, 130});

    std::printf("\nPaper: baselines blow the TBT tail as load rises"
                " (mixed batching with large prompts); Splitwise-HH/HHcap"
                " hold latency; Splitwise-AA has the highest TTFT but"
                " sustains high RPS; HA bridges TTFT and throughput\n");
    return 0;
}
