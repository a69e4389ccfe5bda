/**
 * @file
 * Domain scenario: serving a code-completion assistant (the paper's
 * coding trace - big prompts, tiny outputs) and deciding between a
 * homogeneous mixed-batching fleet and a Splitwise split fleet at
 * equal machine count.
 *
 *   ./build/examples/coding_assistant [rps]
 */

#include <cstdio>
#include <cstdlib>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/slo.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

int
main(int argc, char** argv)
{
    using namespace splitwise;
    using metrics::Table;

    const double rps = argc > 1 ? std::atof(argv[1]) : 60.0;
    const model::LlmConfig llm = model::llama2_70b();

    workload::TraceGenerator gen(workload::coding(), 11);
    const workload::Trace trace = gen.generate(rps, sim::secondsToUs(45));
    std::printf("Coding workload: %zu requests at %.0f RPS, median prompt"
                " %lld tokens, median output %lld tokens\n",
                trace.size(), rps,
                static_cast<long long>(
                    workload::coding().promptTokens->median()),
                static_cast<long long>(
                    workload::coding().outputTokens->median()));

    // Same 20 DGX-H100 machines, organized two ways.
    const core::ClusterDesign candidates[] = {
        core::baselineH100(20),
        core::splitwiseHH(17, 3),
    };

    const core::SloChecker checker(llm);
    Table table({"fleet", "TTFT p50/p90 (ms)", "TBT p50 (ms)",
                 "worst gap p90 (ms)", "E2E p50 (ms)", "SLO"});
    for (const auto& design : candidates) {
        core::Cluster cluster(llm, design);
        const core::RunReport report = cluster.run(trace);
        const core::SloReport slo =
            checker.evaluate(report.requests, core::SloSet{});
        const auto& m = report.requests;
        table.addRow({
            design.name + " (" + std::to_string(design.numPrompt) + "P+" +
                std::to_string(design.numToken) + "T)",
            Table::fmt(m.ttftStats().p50, 0) + "/" +
                Table::fmt(m.ttftStats().p90, 0),
            Table::fmt(m.tbtStats().p50, 1),
            Table::fmt(m.maxTbtStats().p90, 0),
            Table::fmt(m.e2eStats().p50, 0),
            slo.pass ? "pass" : "FAIL " + slo.violation,
        });
    }
    table.print();

    std::printf("\nThe coding service is prompt-heavy, so the split fleet"
                " dedicates most machines to the prompt pool and keeps"
                " decode latency clean on the rest.\n");
    return 0;
}
