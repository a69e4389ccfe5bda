/**
 * @file
 * Regenerates paper Fig. 20: robustness to workload changes -
 * (a) the conversation trace on clusters provisioned for coding, and
 * (b) Llama2-70B on clusters provisioned for BLOOM-176B - on the
 * iso-power throughput-optimized designs at 1/5 scale.
 */

#include <cstdio>

#include "bench/bench_common.h"

namespace {

void
sweep(const char* title, const splitwise::model::LlmConfig& llm,
      const splitwise::workload::Workload& workload,
      const char* provisioned_for, const std::vector<double>& loads)
{
    using namespace splitwise;
    using metrics::Table;
    using provision::DesignKind;

    const core::SloChecker checker(llm);
    bench::banner(title);
    Table table({"design", "RPS", "TTFT p50 (ms)", "TBT p50 (ms)",
                 "E2E p50 (s)", "SLO"});
    for (DesignKind kind : provision::allDesignKinds()) {
        const core::ClusterDesign design =
            bench::isoPowerDesign(kind, provisioned_for);
        for (double rps : loads) {
            const auto trace = bench::makeTrace(workload, rps, 30);
            const auto report =
                core::run(bench::cliRunOptions(llm, design, trace));
            const auto slo =
                checker.evaluate(report.requests, core::SloSet{});
            table.addRow({
                design.name,
                Table::fmt(rps, 0),
                Table::fmt(report.requests.ttftStats().p50, 0),
                Table::fmt(report.requests.tbtStats().p50, 1),
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
    bench::parseBenchArgs(argc, argv, "bench_fig20_workload_changes",
        "Paper Fig. 20: robustness to workload drift",
        bench::kSinks | bench::kPolicy);

    // (a) Conversation trace on clusters provisioned for coding.
    sweep("Fig. 20a: conversation trace on coding-provisioned clusters",
          model::llama2_70b(), workload::conversation(), "coding",
          {40, 70, 100});
    std::printf("Paper: homogeneous designs (AA/HH) morph via the mixed"
                " pool with no loss; HA/HHcap lose ~7%% throughput; all"
                " Splitwise designs still beat the baselines\n");

    // (b) Llama2-70B on clusters provisioned for BLOOM-176B (same
    // machine counts; Llama supports much higher load).
    sweep("Fig. 20b: Llama2-70B on BLOOM-provisioned clusters",
          model::llama2_70b(), workload::conversation(), "conversation",
          {50, 90, 130});
    std::printf("Paper: Llama sustains much higher throughput on the same"
                " cluster; Splitwise-HH/HHcap keep the best latency as"
                " load rises\n");
    return 0;
}
