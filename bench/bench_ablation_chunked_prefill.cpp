/**
 * @file
 * Ablation beyond the paper: Sarathi-style chunked prefill [23] on
 * the mixed-batching baseline.
 *
 * The paper's mixed continuous batching runs whole prompts alongside
 * decodes, so co-scheduled token phases stall for the full prompt
 * runtime (Fig. 2c). Chunked prefill bounds that stall by slicing
 * prompts, trading prompt throughput and TTFT for a far smaller TBT
 * tail - the direction later systems (Sarathi-Serve, vLLM chunked
 * prefill) took. This bench quantifies that trade against Splitwise's
 * answer (separate pools) on the conversation trace.
 */

#include <cstdio>

#include "bench/bench_common.h"

int
main(int argc, char** argv)
{
    splitwise::bench::parseBenchArgs(argc, argv, "bench_ablation_chunked_prefill",
        "Ablation: chunked-prefill budget vs TTFT/TBT trade-off");
    using namespace splitwise;
    using metrics::Table;

    const double rps = 100.0;
    const auto trace = bench::makeTrace(workload::conversation(), rps, 30);
    const core::SloChecker checker(model::llama2_70b());

    bench::banner("Ablation: chunked prefill vs phase splitting "
                  "(conversation @ 100 RPS)");
    Table table({"configuration", "TTFT p50 (ms)", "TTFT p90 (ms)",
                 "TBT p50 (ms)", "TBT max p90 (ms)", "SLO"});

    auto run_row = [&](const char* name, const core::ClusterDesign& design,
                       std::int64_t chunk) {
        core::SimConfig config;
        config.mls.promptChunkTokens = chunk;
        core::Cluster cluster(model::llama2_70b(), design, config);
        const auto report = cluster.run(trace);
        const auto slo = checker.evaluate(report.requests, core::SloSet{});
        table.addRow({
            name,
            Table::fmt(report.requests.ttftStats().p50, 0),
            Table::fmt(report.requests.ttftStats().p90, 0),
            Table::fmt(report.requests.tbtStats().p50, 1),
            Table::fmt(report.requests.maxTbtStats().p90, 0),
            slo.pass ? "pass" : "FAIL " + slo.violation,
        });
    };

    run_row("Baseline-H100, whole prompts (paper)", core::baselineH100(40),
            0);
    run_row("Baseline-H100, 2048-token chunks", core::baselineH100(40),
            2048);
    run_row("Baseline-H100, 512-token chunks", core::baselineH100(40), 512);
    run_row("Baseline-H100, 256-token chunks", core::baselineH100(40), 256);
    run_row("Splitwise-HH 17P+23T (phase split)",
            core::splitwiseHH(17, 23), 0);
    table.print();

    std::printf("\nTakeaway: chunking shrinks the baseline's TBT tail"
                " (the max-gap column) at the price of TTFT; phase"
                " splitting removes the interference entirely without"
                " the TTFT penalty.\n");
    return 0;
}
