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
using core::SimConfig;

/**
 * Failure-injection and overload scenarios: the simulator must stay
 * deadlock-free and complete every request no matter how hostile
 * the load pattern is.
 */
TEST(StressTest, BurstArrivalAllAtOnce)
{
    workload::Trace trace;
    for (int i = 0; i < 200; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 1500, 30});
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 200u);
}

TEST(StressTest, SustainedOverloadDrains)
{
    // 10x more load than two machines can serve; queues grow but the
    // finite trace must still drain to completion.
    workload::TraceGenerator gen(workload::conversation(), 17);
    const auto trace = gen.generate(40.0, sim::secondsToUs(15));
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    // Overflow pushed work into the mixed pool.
    EXPECT_GT(report.mixedRoutes, 0u);
}

TEST(StressTest, MemoryPressureForcesStallsNotDeadlock)
{
    // BLOOM on a memory-starved configuration: tiny usable fraction
    // leaves barely more KV space than single requests need.
    SimConfig config;
    config.memoryUtilFraction = 0.62;  // ~45 GB of KV for BLOOM
    workload::Trace trace;
    for (int i = 0; i < 60; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::msToUs(i * 20.0), 2000, 60});
    }
    Cluster cluster(model::bloom_176b(), core::splitwiseHH(1, 1), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 60u);
    // The token machine had to queue inbound transfers.
    EXPECT_GT(report.transfers.memoryStalls, 0u);
}

TEST(StressTest, PreemptionPathExercisedUnderTightMemory)
{
    // ~11k KV tokens on the machine: three 3000-token residents fit,
    // but their decodes grow past the free blocks mid-flight.
    SimConfig config;
    config.memoryUtilFraction = 0.62;
    config.cls.tokenOverflowUtilization = 1.1;  // never overflow away
    workload::Trace trace;
    for (int i = 0; i < 12; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::msToUs(i * 10.0), 3000, 900});
    }
    Cluster cluster(model::bloom_176b(), core::baselineH100(1), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 12u);
    // With decodes growing into a full pool, recompute preemptions
    // must fire (and be survivable).
    EXPECT_GT(report.preemptions, 0u);
}

TEST(StressTest, LongGenerationsComplete)
{
    workload::Trace trace;
    for (int i = 0; i < 5; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::msToUs(i * 100.0), 500, 4000});
    }
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 5u);
    EXPECT_EQ(report.requests.totalOutputTokens(), 20000);
}

TEST(StressTest, HugePromptsRunAlone)
{
    workload::Trace trace;
    for (int i = 0; i < 10; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::msToUs(i * 50.0), 16000, 4});
    }
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 10u);
}

TEST(StressTest, MixOfExtremes)
{
    workload::Trace trace;
    std::uint64_t id = 0;
    for (int i = 0; i < 30; ++i) {
        trace.push_back({id++, sim::msToUs(i * 30.0), 8000, 1});
        trace.push_back({id++, sim::msToUs(i * 30.0 + 1), 1, 300});
        trace.push_back({id++, sim::msToUs(i * 30.0 + 2), 1000, 50});
    }
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 90u);
}

TEST(StressTest, RequestLevelPolicyCluster)
{
    // The Fig. 2a policy end to end: slower, but correct.
    SimConfig config;
    config.mls.policy = engine::BatchPolicy::kRequestLevel;
    workload::TraceGenerator gen(workload::conversation(), 5);
    const auto trace = gen.generate(2.0, sim::secondsToUs(20));
    Cluster cluster(model::llama2_70b(), core::baselineH100(2), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(StressTest, ContinuousPolicyCluster)
{
    SimConfig config;
    config.mls.policy = engine::BatchPolicy::kContinuous;
    workload::TraceGenerator gen(workload::conversation(), 5);
    const auto trace = gen.generate(4.0, sim::secondsToUs(20));
    Cluster cluster(model::llama2_70b(), core::baselineH100(2), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(StressTest, BatchingPoliciesOrderTailTbtAsInFig2)
{
    // Fig. 2: request-level batching has the worst tail TTFT;
    // continuous preemption hurts tail TBT vs mixed.
    workload::TraceGenerator gen(workload::conversation(), 5);
    const auto trace = gen.generate(5.0, sim::secondsToUs(25));
    auto run_policy = [&](engine::BatchPolicy policy) {
        SimConfig config;
        config.mls.policy = policy;
        Cluster cluster(model::llama2_70b(), core::baselineH100(2), config);
        return cluster.run(trace);
    };
    const RunReport request_level =
        run_policy(engine::BatchPolicy::kRequestLevel);
    const RunReport continuous = run_policy(engine::BatchPolicy::kContinuous);
    const RunReport mixed = run_policy(engine::BatchPolicy::kMixed);
    EXPECT_GT(request_level.requests.ttftStats().p90,
              mixed.requests.ttftStats().p90);
    EXPECT_GE(continuous.requests.maxTbtStats().p90,
              mixed.requests.maxTbtStats().p90);
}

}  // namespace
}  // namespace splitwise
