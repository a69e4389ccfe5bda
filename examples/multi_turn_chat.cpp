/**
 * @file
 * Multi-turn chat serving (paper SVII): chat APIs resend the whole
 * conversation every turn, so sessions become increasingly
 * prompt-heavy. This example generates interleaved chat sessions,
 * serves them on a Splitwise-HH cluster, and exports the run report
 * as JSON for downstream tooling.
 *
 *   ./build/examples/multi_turn_chat [out.json]
 */

#include <cstdio>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/report_io.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "workload/multi_turn.h"

int
main(int argc, char** argv)
{
    using namespace splitwise;
    using metrics::Table;

    const std::string out_path =
        argc > 1 ? argv[1] : "/tmp/splitwise_multiturn_report.json";

    // Interleaved chat sessions: 3 new sessions/s, 2-6 turns each.
    workload::MultiTurnTraceGenerator gen(
        workload::defaultMultiTurnConfig(), /*seed=*/19);
    const workload::Trace trace = gen.generate(3.0, sim::secondsToUs(90));

    metrics::Summary prompts;
    for (const auto& r : trace)
        prompts.add(static_cast<double>(r.promptTokens));
    std::printf("Generated %zu turns across %zu sessions; prompt tokens"
                " p50 %.0f, p90 %.0f (context accumulates per turn)\n",
                trace.size(), gen.lastSessionCount(), prompts.p50(),
                prompts.p90());

    core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(5, 3));
    const core::RunReport report = cluster.run(trace);

    Table table({"metric", "p50", "p90", "p99"});
    auto row = [&](const char* name,
                   const metrics::RequestMetrics::LatencyStats& s) {
        table.addRow({name, Table::fmt(s.p50, 1), Table::fmt(s.p90, 1),
                      Table::fmt(s.p99, 1)});
    };
    row("TTFT (ms)", report.requests.ttftStats());
    row("TBT (ms)", report.requests.tbtStats());
    row("E2E (ms)", report.requests.e2eStats());
    table.print();

    std::printf("\nPrompt pool processed %lld tokens vs %lld generated -"
                " resent context makes chat prompt-heavy, the regime"
                " where dedicated prompt machines pay off (SVII).\n",
                static_cast<long long>(
                    report.promptPool.promptTokensProcessed +
                    report.tokenPool.promptTokensProcessed),
                static_cast<long long>(
                    report.requests.totalOutputTokens()));

    const core::SloChecker checker(model::llama2_70b());
    const core::SloReport slo =
        checker.evaluate(report.requests, core::SloSet{});
    core::writeReportJson(report, out_path, &slo);
    std::printf("Full report written to %s\n", out_path.c_str());
    return 0;
}
