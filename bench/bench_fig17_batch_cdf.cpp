/**
 * @file
 * Regenerates paper Fig. 17: cumulative distribution of time spent
 * at various active-batched-token counts on iso-power
 * throughput-optimized clusters, conversation trace, at low and high
 * load (paper: 70 and 130 RPS; ours 14 and 26 at 1/5 scale).
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

void
atLoad(double rps, const char* label)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    const auto trace =
        bench::makeTrace(workload::conversation(), rps, 40);

    const auto baseline = core::run(bench::cliRunOptions(
        model::llama2_70b(),
        bench::isoPowerDesign(DesignKind::kBaselineH100, "conversation"),
        trace));
    const auto split = core::run(bench::cliRunOptions(
        model::llama2_70b(),
        bench::isoPowerDesign(DesignKind::kSplitwiseHH, "conversation"),
        trace));

    bench::banner(std::string("Fig. 17: active batched tokens CDF, ") +
                  label);
    Table table({"active tokens <=", "Baseline-H100 (%)",
                 "Splitwise-HH prompt pool (%)",
                 "Splitwise-HH token pool (%)"});
    for (std::int64_t t : {0, 1, 5, 10, 15, 20, 30, 50, 100, 1000, 4000}) {
        table.addRow({
            std::to_string(t),
            Table::fmt(100.0 * baseline.promptPool.activeTokens.cdfAt(t), 1),
            Table::fmt(100.0 * split.promptPool.activeTokens.cdfAt(t), 1),
            Table::fmt(100.0 * split.tokenPool.activeTokens.cdfAt(t), 1),
        });
    }
    table.print();
    std::printf("Mixed-pool routes at this load: %llu\n",
                static_cast<unsigned long long>(split.mixedRoutes));
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig17_batch_cdf",
        "Paper Fig. 17: batched-token CDFs per pool",
        bench::kSinks | bench::kPolicy);
    atLoad(70.0, "low load (70 RPS)");
    atLoad(130.0, "high load (130 RPS)");
    std::printf("\nPaper: at low load baseline machines spend ~70%% of"
                " time at <= 15 active tokens while Splitwise token"
                " machines batch much better; at high load the mixed"
                " pool makes the distributions converge\n");
    return 0;
}
