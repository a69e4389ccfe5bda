/**
 * @file
 * Fault tolerance (paper SIV-E): kill a token machine mid-run and
 * compare the two recovery strategies the paper discusses -
 * restarting stranded requests from scratch versus restoring their
 * KV-cache from an in-memory checkpoint store.
 *
 *   ./build/examples/fault_tolerance
 */

#include <cstdio>

#include "core/cluster.h"
#include "core/designs.h"
#include "metrics/table.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace {

struct Outcome {
    splitwise::core::RunReport report;
};

Outcome
runWith(bool inject_failure, bool checkpointing,
        const splitwise::workload::Trace& trace)
{
    using namespace splitwise;
    core::SimConfig config;
    config.kvCheckpointing = checkpointing;
    core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(3, 3),
                          config);
    if (inject_failure) {
        // Machine 4 is a token machine (ids 3..5 form the token pool).
        cluster.scheduleFailure(4, sim::secondsToUs(10));
    }
    return {cluster.run(trace)};
}

}  // namespace

int
main()
{
    using namespace splitwise;
    using metrics::Table;

    workload::TraceGenerator gen(workload::conversation(), 31);
    const workload::Trace trace = gen.generate(12.0, sim::secondsToUs(30));
    std::printf("Splitwise-HH (3P+3T) serving %zu conversation requests;"
                " token machine 4 dies at t=10s\n\n",
                trace.size());

    Table table({"scenario", "completed", "restarts", "ckpt restores",
                 "E2E p50 (s)", "E2E p99 (s)", "worst gap p99 (ms)"});
    auto row = [&](const char* name, const Outcome& o) {
        const auto& m = o.report.requests;
        table.addRow({
            name,
            std::to_string(m.completed()),
            std::to_string(o.report.restarts),
            std::to_string(o.report.checkpointRestores),
            Table::fmt(m.e2eStats().p50 / 1e3),
            Table::fmt(m.e2eStats().p99 / 1e3),
            Table::fmt(m.maxTbtStats().p99, 0),
        });
    };
    row("no failure", runWith(false, false, trace));
    row("failure, restart from scratch", runWith(true, false, trace));
    row("failure, KV checkpoint restore", runWith(true, true, trace));
    table.print();

    std::printf("\nRestart-from-scratch recomputes every stranded prompt"
                " (lost work shows in the E2E tail). Checkpointing"
                " restores the KV-cache over the wire and resumes the"
                " decode where it stopped - the recovery the paper"
                " sketches in SIV-E.\n");
    return 0;
}
