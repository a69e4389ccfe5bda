/**
 * @file
 * Power-capping exploration (the insight behind Splitwise-HHcap):
 * sweep per-GPU power caps on the token pool and watch provisioned
 * power fall while latency barely moves - then show what the same
 * cap does to a prompt pool.
 *
 *   ./build/examples/power_capping
 */

#include <cstdio>

#include "core/cluster.h"
#include "core/designs.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

int
main()
{
    using namespace splitwise;
    using metrics::Table;

    const model::LlmConfig llm = model::llama2_70b();
    workload::TraceGenerator gen(workload::conversation(), 5);
    const workload::Trace trace = gen.generate(30.0, sim::secondsToUs(30));

    std::printf("Sweeping per-GPU power caps on a Splitwise-HH cluster"
                " (6P+8T, conversation @ 30 RPS)\n");

    Table token_table({"token-pool cap", "cluster power (kW)",
                       "TBT p50 (ms)", "E2E p50 (s)"});
    for (double cap : {1.0, 0.8, 0.6, 0.5, 0.4}) {
        core::ClusterDesign design = core::splitwiseHH(6, 8);
        design.tokenSpec = hw::dgxH100().withPowerCap(cap);
        design.name = "HH token-cap";
        core::Cluster cluster(llm, design);
        const auto report = cluster.run(trace);
        token_table.addRow({
            Table::fmt(cap * 100, 0) + "%",
            Table::fmt(report.footprint.powerWatts / 1e3, 1),
            Table::fmt(report.requests.tbtStats().p50, 1),
            Table::fmt(report.requests.e2eStats().p50 / 1e3, 2),
        });
    }
    token_table.print();
    std::printf("Token pool: capping to 50%% saves power at essentially"
                " no latency cost (Fig. 9b).\n\n");

    Table prompt_table({"prompt-pool cap", "cluster power (kW)",
                        "TTFT p50 (ms)", "E2E p50 (s)"});
    for (double cap : {1.0, 0.8, 0.6, 0.5}) {
        core::ClusterDesign design = core::splitwiseHH(6, 8);
        design.promptSpec = hw::dgxH100().withPowerCap(cap);
        design.name = "HH prompt-cap";
        core::Cluster cluster(llm, design);
        const auto report = cluster.run(trace);
        prompt_table.addRow({
            Table::fmt(cap * 100, 0) + "%",
            Table::fmt(report.footprint.powerWatts / 1e3, 1),
            Table::fmt(report.requests.ttftStats().p50, 0),
            Table::fmt(report.requests.e2eStats().p50 / 1e3, 2),
        });
    }
    prompt_table.print();
    std::printf("Prompt pool: the same caps inflate TTFT badly (Fig. 9a)"
                " - cap the token pool, never the prompt pool.\n");
    return 0;
}
