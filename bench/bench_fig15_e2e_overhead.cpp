/**
 * @file
 * Regenerates paper Fig. 15: end-to-end overhead of the KV-cache
 * transfer on the coding trace - a two-machine Splitwise pair vs. a
 * single-machine baseline, with serialized-only transfer as the
 * ablation (SVI-A).
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

splitwise::metrics::Summary
secondTokenSummary(const splitwise::core::RunReport& report)
{
    splitwise::metrics::Summary s;
    for (const auto& r : report.requests.results()) {
        if (r.outputTokens > 1)
            s.add(r.secondTokenMs);
    }
    return s;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig15_e2e_overhead",
        "Paper Fig. 15: end-to-end transfer overhead",
        bench::kSinks | bench::kPolicy);
    using metrics::Table;

    // Low arrival rate approximates the paper's no-batching setup:
    // requests rarely overlap, so the second-token gap isolates the
    // transfer itself rather than queueing behind other decodes.
    const auto trace = bench::makeTrace(workload::coding(), 0.4, 150);

    // Baseline: one machine, no transfer (run two so capacity and
    // contention match the Splitwise pair).
    const auto local = core::run(bench::cliRunOptions(
        model::llama2_70b(), core::baselineH100(2), trace));

    // Splitwise with the adaptive serialized/layer-wise policy.
    const auto split = core::run(bench::cliRunOptions(
        model::llama2_70b(), core::splitwiseHH(1, 1), trace));

    // Ablation: force serialized transfers for every prompt size.
    core::SimConfig serialized_only;
    serialized_only.layerwiseThresholdTokens =
        std::numeric_limits<std::int64_t>::max();
    const auto serialized = core::run(bench::cliRunOptions(
        model::llama2_70b(), core::splitwiseHH(1, 1), trace,
        serialized_only));

    bench::banner("Fig. 15: KV transfer overhead, coding trace, H100 pair");
    Table table({"setup", "TTFT p50 (ms)", "2nd token p50 (ms)",
                 "E2E p50 (ms)", "E2E overhead", "2nd token overhead"});
    const auto base_second = secondTokenSummary(local);
    auto row = [&](const char* name, const core::RunReport& r) {
        const auto second = secondTokenSummary(r);
        table.addRow({
            name,
            Table::fmt(r.requests.ttftStats().p50, 1),
            Table::fmt(second.p50(), 1),
            Table::fmt(r.requests.e2eStats().p50, 1),
            Table::fmt(100.0 * (r.requests.e2eStats().p50 /
                                    local.requests.e2eStats().p50 -
                                1.0),
                       1) + "%",
            Table::fmt(100.0 * (second.p50() / base_second.p50() - 1.0), 1) +
                "%",
        });
    };
    row("no transfer (1 machine)", local);
    row("Splitwise (adaptive)", split);
    row("serialized only", serialized);
    table.print();

    std::printf("\nPaper: serialized adds up to 3%% E2E and 64%% to the"
                " second token; Splitwise 0.8%% E2E and 16.5%% to the"
                " second token\n");
    std::printf("Transfers: %llu adaptive (%llu layer-wise), %llu"
                " serialized-only\n",
                static_cast<unsigned long long>(split.transfers.transfers),
                static_cast<unsigned long long>(
                    split.transfers.layerwiseTransfers),
                static_cast<unsigned long long>(
                    serialized.transfers.transfers));
    return 0;
}
