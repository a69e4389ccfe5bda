#include "core/cluster.h"

#include <gtest/gtest.h>

#include "core/designs.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

workload::Trace
conversationTrace(double rps, double seconds, std::uint64_t seed = 1)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

TEST(ClusterTest, BaselineCompletesAllRequests)
{
    const auto trace = conversationTrace(4.0, 30);
    Cluster cluster(model::llama2_70b(), baselineH100(2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_EQ(report.submitted, trace.size());
    // Baselines never transfer KV between machines.
    EXPECT_EQ(report.transfers.transfers, 0u);
}

TEST(ClusterTest, SplitwiseCompletesAllRequests)
{
    const auto trace = conversationTrace(4.0, 30);
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_GT(report.transfers.transfers, 0u);
}

TEST(ClusterTest, TokenConservation)
{
    const auto trace = conversationTrace(4.0, 30);
    std::int64_t expected_prompt = 0;
    std::int64_t expected_output = 0;
    for (const auto& r : trace) {
        expected_prompt += r.promptTokens;
        expected_output += r.outputTokens;
    }
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.totalPromptTokens(), expected_prompt);
    EXPECT_EQ(report.requests.totalOutputTokens(), expected_output);
    // Machines generated exactly the output tokens (prompt machines
    // make the first token, token machines the rest).
    EXPECT_EQ(report.promptPool.tokensGenerated +
                  report.tokenPool.tokensGenerated,
              expected_output);
}

TEST(ClusterTest, SplitwiseSeparatesPhases)
{
    const auto trace = conversationTrace(4.0, 30);
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    // At low load the prompt pool does (nearly) all prompt work and
    // the token pool (nearly) all decode work.
    EXPECT_GT(report.promptPool.promptTokensProcessed,
              report.tokenPool.promptTokensProcessed);
    EXPECT_GT(report.tokenPool.tokensGenerated,
              report.promptPool.tokensGenerated);
}

TEST(ClusterTest, DeterministicAcrossRuns)
{
    const auto trace = conversationTrace(5.0, 20);
    auto run_once = [&] {
        Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
        return cluster.run(trace);
    };
    const RunReport a = run_once();
    const RunReport b = run_once();
    ASSERT_EQ(a.requests.completed(), b.requests.completed());
    EXPECT_DOUBLE_EQ(a.requests.e2eStats().mean, b.requests.e2eStats().mean);
    EXPECT_DOUBLE_EQ(a.requests.ttftStats().p99, b.requests.ttftStats().p99);
    EXPECT_EQ(a.simulatedUs, b.simulatedUs);
}

TEST(ClusterTest, LatenciesAreReasonable)
{
    const auto trace = conversationTrace(2.0, 30);
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 1));
    const RunReport report = cluster.run(trace);
    // Near-idle H100s: TTFT close to the pure prompt latency.
    EXPECT_GT(report.requests.ttftStats().p50, 30.0);
    EXPECT_LT(report.requests.ttftStats().p50, 300.0);
    EXPECT_GT(report.requests.tbtStats().p50, 20.0);
    EXPECT_LT(report.requests.tbtStats().p50, 80.0);
}

TEST(ClusterTest, RunIsOneShot)
{
    const auto trace = conversationTrace(2.0, 5);
    Cluster cluster(model::llama2_70b(), baselineH100(1));
    cluster.run(trace);
    EXPECT_THROW(cluster.run(trace), std::runtime_error);
}

TEST(ClusterTest, RejectsBadDesigns)
{
    EXPECT_THROW(Cluster(model::llama2_70b(), baselineH100(0)),
                 std::runtime_error);
    EXPECT_THROW(Cluster(model::llama2_70b(), splitwiseHH(2, 0)),
                 std::runtime_error);
}

TEST(ClusterTest, EmptyTraceYieldsEmptyReport)
{
    Cluster cluster(model::llama2_70b(), baselineH100(1));
    const RunReport report = cluster.run({});
    EXPECT_EQ(report.requests.completed(), 0u);
}

TEST(ClusterTest, PiecewisePerfModelCloseToAnalytical)
{
    const auto trace = conversationTrace(3.0, 20);
    SimConfig piecewise;
    piecewise.usePiecewisePerfModel = true;
    Cluster a(model::llama2_70b(), splitwiseHH(2, 2));
    Cluster b(model::llama2_70b(), splitwiseHH(2, 2), piecewise);
    const double e2e_a = a.run(trace).requests.e2eStats().mean;
    const double e2e_b = b.run(trace).requests.e2eStats().mean;
    EXPECT_NEAR(e2e_b / e2e_a, 1.0, 0.05);
}

TEST(ClusterTest, BloomAlsoRuns)
{
    const auto trace = conversationTrace(2.0, 15);
    Cluster bloom(model::bloom_176b(), splitwiseHH(2, 2));
    const RunReport report = bloom.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    // BLOOM is slower than Llama end to end (Table III/IV).
    Cluster llama(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport llama_report = llama.run(trace);
    EXPECT_GT(report.requests.e2eStats().p50,
              1.1 * llama_report.requests.e2eStats().p50);
}

TEST(ClusterTest, PoolReportsCoverAllMachines)
{
    const auto trace = conversationTrace(2.0, 10);
    Cluster cluster(model::llama2_70b(), splitwiseHA(3, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.promptPool.machines, 3);
    EXPECT_EQ(report.tokenPool.machines, 2);
    EXPECT_GT(report.promptPool.energyWh, 0.0);
    EXPECT_GT(report.tokenPool.energyWh, 0.0);
}

TEST(ClusterTest, HeterogeneousHaUsesA100TokenMachines)
{
    const auto trace = conversationTrace(2.0, 10);
    Cluster cluster(model::llama2_70b(), splitwiseHA(2, 2));
    EXPECT_EQ(cluster.machines()[0]->spec().name, "DGX-H100");
    EXPECT_EQ(cluster.machines()[2]->spec().name, "DGX-A100");
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(ClusterTest, SingleOutputTokenRequestsNeverTransfer)
{
    workload::Trace trace;
    for (int i = 0; i < 10; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::secondsToUs(i * 0.2), 1000, 1});
    }
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 10u);
    EXPECT_EQ(report.transfers.transfers, 0u);
}

}  // namespace
}  // namespace splitwise::core
