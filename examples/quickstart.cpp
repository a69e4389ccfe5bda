/**
 * @file
 * Quickstart: simulate a small Splitwise-HH cluster serving the
 * conversation workload on Llama2-70B and print the latency metrics.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/slo.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

int
main()
{
    using namespace splitwise;

    // 1. Pick a model and a cluster design (Table V nomenclature:
    //    first letter = prompt machines, second = token machines).
    const model::LlmConfig llm = model::llama2_70b();
    const core::ClusterDesign design = core::splitwiseHH(/*num_prompt=*/6,
                                                         /*num_token=*/2);

    // 2. Generate a 60-second conversation trace at 10 requests/s.
    workload::TraceGenerator gen(workload::conversation(), /*seed=*/7);
    const workload::Trace trace = gen.generate(10.0, sim::secondsToUs(60));
    std::printf("Generated %zu requests (%.1f RPS)\n", trace.size(),
                workload::traceRps(trace));

    // 3. Run the cluster simulation to completion.
    core::Cluster cluster(llm, design);
    const core::RunReport report = cluster.run(trace);

    // 4. Report the paper's metrics (Table II).
    const auto& m = report.requests;
    metrics::Table table({"metric", "p50", "p90", "p99", "mean"});
    auto add = [&](const char* name,
                   const metrics::RequestMetrics::LatencyStats& s) {
        table.addRow({name, metrics::Table::fmt(s.p50),
                      metrics::Table::fmt(s.p90), metrics::Table::fmt(s.p99),
                      metrics::Table::fmt(s.mean)});
    };
    add("TTFT (ms)", m.ttftStats());
    add("TBT (ms)", m.tbtStats());
    add("E2E (ms)", m.e2eStats());
    table.print();

    std::printf("\nCompleted %zu/%zu requests, %.1f tokens/s generated\n",
                m.completed(), report.submitted, m.tokenThroughput());
    std::printf("KV transfers: %llu (%.1f%% layer-wise), %.2f GB moved\n",
                static_cast<unsigned long long>(report.transfers.transfers),
                report.transfers.transfers
                    ? 100.0 * report.transfers.layerwiseTransfers /
                          report.transfers.transfers
                    : 0.0,
                report.transfers.bytesMoved / 1e9);
    std::printf("Mixed-pool routes: %llu, pool transitions: %llu\n",
                static_cast<unsigned long long>(report.mixedRoutes),
                static_cast<unsigned long long>(report.poolTransitions));

    // 5. Check the paper's SLOs (Table VI).
    const core::SloChecker checker(llm);
    const core::SloReport slo = checker.evaluate(m, core::SloSet{});
    std::printf("SLOs: %s%s%s\n", slo.pass ? "PASS" : "FAIL",
                slo.pass ? "" : " - violated ",
                slo.pass ? "" : slo.violation.c_str());
    return 0;
}
