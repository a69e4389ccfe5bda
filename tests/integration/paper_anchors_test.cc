#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/slo.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise {
namespace {

using core::Cluster;
using core::RunReport;

/**
 * System-level anchors from the paper's evaluation (Fig. 16/17),
 * run on the full-scale iso-power clusters. These are the headline
 * orderings EXPERIMENTS.md records; regressions here mean the
 * reproduction stopped telling the paper's story.
 */
class PaperAnchors : public ::testing::Test {
  protected:
    static RunReport
    run(const core::ClusterDesign& design, double rps, std::uint64_t seed = 42)
    {
        workload::TraceGenerator gen(workload::conversation(), seed);
        const auto trace = gen.generate(rps, sim::secondsToUs(30));
        Cluster cluster(model::llama2_70b(), design);
        return cluster.run(trace);
    }
};

TEST_F(PaperAnchors, BaselinesBlowTbtTailsAtLoad)
{
    // Fig. 16 conversation: mixed batching with large prompts gives
    // baselines worst-gap tails an order of magnitude above
    // Splitwise's phase-separated decodes.
    const RunReport baseline = run(core::baselineH100(40), 100.0);
    const RunReport split = run(core::splitwiseHH(17, 23), 100.0);
    EXPECT_GT(baseline.requests.maxTbtStats().p90,
              5.0 * split.requests.maxTbtStats().p90);
}

TEST_F(PaperAnchors, SplitwiseTtftBeatsBaselineAtLoad)
{
    // Dedicated prompt machines run full-efficiency prompt batches
    // with no decode interference.
    const RunReport baseline = run(core::baselineH100(40), 100.0);
    const RunReport split = run(core::splitwiseHH(17, 23), 100.0);
    EXPECT_LT(split.requests.ttftStats().p50,
              baseline.requests.ttftStats().p50);
}

TEST_F(PaperAnchors, HHcapMatchesHHLatencyAtLowerPower)
{
    // Fig. 19a: power-capped token machines cost nothing in latency.
    const RunReport hh = run(core::splitwiseHH(17, 23), 70.0);
    const RunReport cap = run(core::splitwiseHHcap(17, 23), 70.0);
    EXPECT_LT(cap.footprint.powerWatts, 0.85 * hh.footprint.powerWatts);
    EXPECT_NEAR(cap.requests.e2eStats().p50 / hh.requests.e2eStats().p50,
                1.0, 0.05);
}

TEST_F(PaperAnchors, AaTtftHigherButServiceable)
{
    // Fig. 16: Splitwise-AA has consistently higher TTFT than HH
    // (A100 prompt machines) yet meets the looser TTFT SLO.
    const RunReport aa = run(core::splitwiseAA(35, 35), 70.0);
    const RunReport hh = run(core::splitwiseHH(17, 23), 70.0);
    EXPECT_GT(aa.requests.ttftStats().p50,
              1.4 * hh.requests.ttftStats().p50);
    const core::SloChecker checker(model::llama2_70b());
    EXPECT_TRUE(checker.evaluate(aa.requests, core::SloSet{}).pass);
}

TEST_F(PaperAnchors, HaBridgesTtftAndCost)
{
    // Fig. 16: Splitwise-HA keeps H100-class TTFT with an A100-cost
    // token pool.
    const RunReport ha = run(core::splitwiseHA(19, 36), 70.0);
    const RunReport hh = run(core::splitwiseHH(17, 23), 70.0);
    EXPECT_LT(ha.requests.ttftStats().p50,
              1.25 * hh.requests.ttftStats().p50);
    EXPECT_LT(ha.footprint.costPerHour / ha.footprint.machines,
              hh.footprint.costPerHour / hh.footprint.machines);
}

TEST_F(PaperAnchors, SplitwiseTokenMachinesBatchBetterAtLowLoad)
{
    // Fig. 17 at 70 RPS: baseline machines sit at tiny active-token
    // counts; Splitwise token machines run real batches.
    const RunReport baseline = run(core::baselineH100(40), 70.0);
    const RunReport split = run(core::splitwiseHH(17, 23), 70.0);
    const double base_small = baseline.promptPool.activeTokens.cdfAt(10);
    const double split_small = split.tokenPool.activeTokens.cdfAt(10);
    EXPECT_LT(split_small, base_small);
}

TEST_F(PaperAnchors, MixedPoolEngagesOnlyUnderPressure)
{
    const RunReport low = run(core::splitwiseHH(17, 23), 40.0);
    const RunReport high = run(core::splitwiseHH(17, 23), 130.0);
    EXPECT_EQ(low.mixedRoutes, 0u);
    EXPECT_GT(high.mixedRoutes, 0u);
}

TEST_F(PaperAnchors, TransferVolumeMatchesPromptKv)
{
    const RunReport split = run(core::splitwiseHH(17, 23), 40.0);
    // Every transferred request ships promptTokens x kvBytesPerToken.
    EXPECT_GT(split.transfers.transfers, 0u);
    const double per_transfer =
        static_cast<double>(split.transfers.bytesMoved) /
        static_cast<double>(split.transfers.transfers);
    const double mean_prompt_bytes =
        1596.0 * static_cast<double>(model::llama2_70b().kvBytesPerToken());
    EXPECT_NEAR(per_transfer / mean_prompt_bytes, 1.0, 0.25);
}

}  // namespace
}  // namespace splitwise
