/**
 * @file
 * Ablation of the CLS routing policy (paper SIV-A picks
 * Join-the-Shortest-Queue [39, 85]): JSQ versus uniform-random
 * machine selection on an iso-power Splitwise-HH cluster. Random
 * routing lets hot spots form, inflating the latency tails JSQ
 * exists to prevent.
 */

#include <cstdio>

#include "bench/bench_common.h"

int
main(int argc, char** argv)
{
    splitwise::bench::parseBenchArgs(argc, argv, "bench_ablation_routing",
        "Ablation: CLS routing policies under load");
    using namespace splitwise;
    using metrics::Table;

    const auto trace =
        bench::makeTrace(workload::conversation(), 90.0, 30);
    const core::ClusterDesign design = core::splitwiseHH(17, 23);
    const core::SloChecker checker(model::llama2_70b());

    bench::banner("Ablation: CLS routing policy, Splitwise-HH 17P+23T, "
                  "conversation @ 90 RPS");
    Table table({"routing", "TTFT p50 (ms)", "TTFT p99 (ms)",
                 "TBT p50 (ms)", "E2E p99 (s)", "SLO"});
    for (const bool random : {false, true}) {
        core::SimConfig config;
        config.cls.routing = random ? core::RoutingPolicy::kRandom
                                    : core::RoutingPolicy::kJsq;
        core::Cluster cluster(model::llama2_70b(), design, config);
        const auto report = cluster.run(trace);
        const auto slo = checker.evaluate(report.requests, core::SloSet{});
        table.addRow({
            random ? "random" : "JSQ (paper)",
            Table::fmt(report.requests.ttftStats().p50, 0),
            Table::fmt(report.requests.ttftStats().p99, 0),
            Table::fmt(report.requests.tbtStats().p50, 1),
            Table::fmt(report.requests.e2eStats().p99 / 1e3, 2),
            slo.pass ? "pass" : "FAIL " + slo.violation,
        });
    }
    table.print();

    std::printf("\nJSQ keeps queue depths even; random routing piles"
                " prompts behind busy machines, blowing the TTFT tail"
                " (the reason the paper adopts JSQ [39, 85]).\n");
    return 0;
}
