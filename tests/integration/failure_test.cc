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
convTrace(double rps, double seconds, std::uint64_t seed = 77)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

/**
 * Machine-failure recovery (paper SIV-E: "Splitwise simply restarts
 * requests from scratch").
 */
TEST(FailureTest, PromptMachineFailureRestartsItsRequests)
{
    // Heavy enough load that both prompt machines hold work when
    // the failure strikes.
    const auto trace = convTrace(30.0, 20);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    cluster.scheduleFailure(/*machine_id=*/0, sim::secondsToUs(5));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_GT(report.restarts, 0u);
    EXPECT_TRUE(cluster.machines()[0]->failed());
}

TEST(FailureTest, TokenMachineFailureRestartsResidents)
{
    const auto trace = convTrace(6.0, 20);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    cluster.scheduleFailure(/*machine_id=*/2, sim::secondsToUs(5));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_GT(report.restarts, 0u);
    // Surviving machines carry the rest of the run: the dead token
    // machine generated nothing after 5 s.
    EXPECT_EQ(cluster.machines()[2]->tokenLoadTokens(), 0);
}

TEST(FailureTest, BaselineMachineFailureRecovers)
{
    const auto trace = convTrace(6.0, 20);
    Cluster cluster(model::llama2_70b(), core::baselineH100(3));
    cluster.scheduleFailure(1, sim::secondsToUs(4));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_GT(report.restarts, 0u);
}

TEST(FailureTest, RestartPenaltyShowsInLatency)
{
    const auto trace = convTrace(5.0, 20);
    Cluster healthy(model::llama2_70b(), core::splitwiseHH(2, 2));
    Cluster faulty(model::llama2_70b(), core::splitwiseHH(2, 2));
    faulty.scheduleFailure(2, sim::secondsToUs(6));
    const RunReport ok = healthy.run(trace);
    const RunReport hit = faulty.run(trace);
    // Restarted requests pay their lost work in E2E tail latency.
    EXPECT_GT(hit.requests.e2eStats().p99, ok.requests.e2eStats().p99);
    EXPECT_GT(hit.restarts, 0u);
}

TEST(FailureTest, MultipleFailuresSurvivable)
{
    const auto trace = convTrace(4.0, 20);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(3, 3));
    cluster.scheduleFailure(0, sim::secondsToUs(3));
    cluster.scheduleFailure(4, sim::secondsToUs(8));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(FailureTest, FailureBeforeAnyArrivalsIsHarmless)
{
    const auto trace = convTrace(4.0, 10);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    cluster.scheduleFailure(1, 0);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_EQ(report.restarts, 0u);
}

TEST(FailureTest, RequestsDestinedForDeadTokenMachineDecodeLocally)
{
    // One prompt machine, one token machine; the token machine dies
    // while prompts queue. Requests must fall back to local decode.
    workload::Trace trace;
    for (int i = 0; i < 12; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::msToUs(i * 30.0), 2000, 30});
    }
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    cluster.scheduleFailure(1, sim::msToUs(150.0));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 12u);
    // The surviving prompt machine generated (nearly) all tokens.
    EXPECT_GT(cluster.machines()[0]->stats().tokensGenerated,
              11 * 30);
}

TEST(FailureTest, SchedulingFailureAfterRunIsRejected)
{
    Cluster cluster(model::llama2_70b(), core::baselineH100(2));
    cluster.run({});
    EXPECT_THROW(cluster.scheduleFailure(0, sim::secondsToUs(1)),
                 std::runtime_error);
}

TEST(FailureTest, BadMachineIdRejected)
{
    Cluster cluster(model::llama2_70b(), core::baselineH100(2));
    EXPECT_THROW(cluster.scheduleFailure(7, 0), std::runtime_error);
    EXPECT_THROW(cluster.scheduleFailure(-1, 0), std::runtime_error);
}

TEST(FailureTest, CheckpointingSkipsPromptRecompute)
{
    // SIV-E alternative: with KV checkpointing, requests past their
    // prompt restore the cache instead of restarting from scratch.
    const auto trace = convTrace(10.0, 20);
    core::SimConfig checkpointed;
    checkpointed.kvCheckpointing = true;
    Cluster plain(model::llama2_70b(), core::splitwiseHH(2, 2));
    Cluster ckpt(model::llama2_70b(), core::splitwiseHH(2, 2),
                 checkpointed);
    plain.scheduleFailure(2, sim::secondsToUs(6));
    ckpt.scheduleFailure(2, sim::secondsToUs(6));
    const RunReport lost = plain.run(trace);
    const RunReport restored = ckpt.run(trace);
    EXPECT_EQ(restored.requests.completed(), trace.size());
    EXPECT_GT(restored.checkpointRestores, 0u);
    EXPECT_EQ(lost.checkpointRestores, 0u);
    // Recovered decodes keep their history: fewer full restarts and
    // a gentler tail than recomputing everything.
    EXPECT_LT(restored.restarts, lost.restarts);
    EXPECT_LE(restored.requests.e2eStats().p99,
              lost.requests.e2eStats().p99);
}

TEST(FailureTest, CheckpointRestoreKeepsTokenConservation)
{
    const auto trace = convTrace(10.0, 15);
    core::SimConfig checkpointed;
    checkpointed.kvCheckpointing = true;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2),
                    checkpointed);
    cluster.scheduleFailure(3, sim::secondsToUs(5));
    const RunReport report = cluster.run(trace);
    std::int64_t expected = 0;
    for (const auto& r : trace)
        expected += r.outputTokens;
    EXPECT_EQ(report.requests.totalOutputTokens(), expected);
}

TEST(FailureTest, DeterministicUnderFailures)
{
    const auto trace = convTrace(5.0, 15);
    auto run_once = [&] {
        Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
        cluster.scheduleFailure(3, sim::secondsToUs(5));
        return cluster.run(trace);
    };
    const RunReport a = run_once();
    const RunReport b = run_once();
    EXPECT_DOUBLE_EQ(a.requests.e2eStats().mean, b.requests.e2eStats().mean);
    EXPECT_EQ(a.restarts, b.restarts);
}

}  // namespace
}  // namespace splitwise
