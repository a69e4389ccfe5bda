#include "core/cls.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

/**
 * CLS behaviour is exercised through small clusters: routing,
 * JSQ balance, mixed-pool overflow, and pool-return transitions.
 */
workload::Trace
uniformTrace(std::size_t count, double interval_s, std::int64_t prompt,
             std::int64_t output)
{
    workload::Trace trace;
    for (std::size_t i = 0; i < count; ++i) {
        trace.push_back({i, sim::secondsToUs(i * interval_s), prompt,
                         output});
    }
    return trace;
}

TEST(ClsTest, PoolNames)
{
    EXPECT_STREQ(poolTypeName(PoolType::kPrompt), "prompt");
    EXPECT_STREQ(poolTypeName(PoolType::kToken), "token");
    EXPECT_STREQ(poolTypeName(PoolType::kMixed), "mixed");
}

TEST(ClsTest, SplitwiseMachinesStartInTheirPools)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 3));
    const auto& cls = cluster.scheduler();
    EXPECT_EQ(cls.poolOf(0), PoolType::kPrompt);
    EXPECT_EQ(cls.poolOf(1), PoolType::kPrompt);
    EXPECT_EQ(cls.poolOf(2), PoolType::kToken);
    EXPECT_EQ(cls.originOf(4), PoolType::kToken);
}

TEST(ClsTest, BaselineMachinesAreMixed)
{
    Cluster cluster(model::llama2_70b(), baselineH100(3));
    EXPECT_EQ(cluster.scheduler().poolOf(0), PoolType::kMixed);
    EXPECT_EQ(cluster.scheduler().originOf(0), PoolType::kMixed);
}

TEST(ClsTest, JsqSpreadsPromptLoad)
{
    // Back-to-back arrivals while machines are busy: JSQ must not
    // pile every prompt on machine 0.
    const auto trace = uniformTrace(16, 0.01, 1500, 4);
    Cluster cluster(model::llama2_70b(), splitwiseHH(4, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 16u);
    int busy_prompt_machines = 0;
    for (int i = 0; i < 4; ++i) {
        if (cluster.machines()[static_cast<std::size_t>(i)]
                ->stats()
                .promptTokensProcessed > 0) {
            ++busy_prompt_machines;
        }
    }
    EXPECT_GE(busy_prompt_machines, 3);
}

TEST(ClsTest, NoOverflowAtLowLoad)
{
    const auto trace = uniformTrace(10, 0.5, 1000, 8);
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.mixedRoutes, 0u);
    EXPECT_EQ(report.poolTransitions, 0u);
}

TEST(ClsTest, PromptBurstOverflowsIntoTokenPool)
{
    // A simultaneous burst of huge prompts swamps the single prompt
    // machine far past the overflow threshold; the CLS must pull the
    // token machines into the mixed pool.
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 24u);
    EXPECT_GT(report.mixedRoutes, 0u);
    EXPECT_GT(report.poolTransitions, 0u);
    // Overflowed requests ran both phases on the pulled machine, so
    // token machines did prompt work.
    std::int64_t token_pool_prompts = 0;
    for (std::size_t i = 1; i < 4; ++i)
        token_pool_prompts +=
            cluster.machines()[i]->stats().promptTokensProcessed;
    EXPECT_GT(token_pool_prompts, 0);
}

TEST(ClsTest, MixedMachinesReturnToOriginPool)
{
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    cluster.run(trace);
    // After the run drains, every machine is back in its origin pool.
    for (int id = 0; id < 4; ++id) {
        EXPECT_EQ(cluster.scheduler().poolOf(id),
                  cluster.scheduler().originOf(id))
            << "machine " << id;
    }
}

TEST(ClsTest, RepurposingSwapsOrigin)
{
    workload::Trace trace;
    for (int i = 0; i < 40; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 30});
    SimConfig config;
    config.cls.promptOverflowTokens = 4000;
    config.cls.repurposeAfterUs = sim::msToUs(200);
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 40u);
    EXPECT_GT(cluster.scheduler().repurposings(), 0u);
}

TEST(ClsTest, RandomRoutingWorksButSpreadsWorse)
{
    // Ablation hook: random routing completes everything, but JSQ
    // keeps the TTFT tail tighter under bursty load.
    const auto trace = uniformTrace(40, 0.02, 1500, 10);
    SimConfig random_cfg;
    random_cfg.cls.routing = RoutingPolicy::kRandom;
    Cluster jsq(model::llama2_70b(), splitwiseHH(4, 2));
    Cluster random(model::llama2_70b(), splitwiseHH(4, 2), random_cfg);
    const RunReport a = jsq.run(trace);
    const RunReport b = random.run(trace);
    EXPECT_EQ(a.requests.completed(), 40u);
    EXPECT_EQ(b.requests.completed(), 40u);
    EXPECT_LE(a.requests.ttftMs().p90(), b.requests.ttftMs().p90() * 1.05);
}

TEST(ClsTest, RandomRoutingDeterministicPerSeed)
{
    const auto trace = uniformTrace(30, 0.05, 1000, 10);
    auto run_once = [&] {
        SimConfig config;
        config.cls.routing = RoutingPolicy::kRandom;
        config.cls.routingSeed = 99;
        Cluster cluster(model::llama2_70b(), splitwiseHH(3, 2), config);
        return cluster.run(trace);
    };
    const RunReport a = run_once();
    const RunReport b = run_once();
    EXPECT_DOUBLE_EQ(a.requests.e2eMs().mean(), b.requests.e2eMs().mean());
}

TEST(ClsTest, RetireRestoreRoundTripKeepsCounters)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    EXPECT_FALSE(cls.contains(0));
    EXPECT_TRUE(cls.inStandby(0));
    EXPECT_EQ(cls.standbySize(), 1u);
    EXPECT_EQ(cls.liveMachines(), 3u);
    EXPECT_EQ(cls.poolSize(PoolType::kPrompt), 1u);
    // Standby machines keep answering identity queries: the origin
    // survives for restore().
    EXPECT_EQ(cls.originOf(0), PoolType::kPrompt);

    cls.restore(0);
    EXPECT_TRUE(cls.contains(0));
    EXPECT_FALSE(cls.inStandby(0));
    EXPECT_EQ(cls.poolOf(0), PoolType::kPrompt);
    EXPECT_EQ(cls.retires(), 1u);
    EXPECT_EQ(cls.restores(), 1u);
    EXPECT_EQ(cls.liveMachines(), 4u);
}

TEST(ClsTest, RestoreUnderNewOriginIsARoleFlex)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.restore(0, PoolType::kToken);
    EXPECT_EQ(cls.poolOf(0), PoolType::kToken);
    EXPECT_EQ(cls.originOf(0), PoolType::kToken);
    EXPECT_EQ(cls.poolSize(PoolType::kPrompt), 1u);
    EXPECT_EQ(cls.poolSize(PoolType::kToken), 3u);
}

TEST(ClsTest, RetireRefusesTheLastRoutedMachine)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.retire(1);
    cls.retire(2);
    EXPECT_THROW(cls.retire(3), std::runtime_error);
    EXPECT_THROW(cls.retire(0), std::runtime_error);  // not routed
}

TEST(ClsTest, FlexedMachineFailsAndRejoinsItsFlexedPool)
{
    // A machine flexed prompt->token crashes and recovers mid-run:
    // it must rejoin under its flexed identity (the origin restore()
    // assigned), with retire/restore/rejoin counters consistent and
    // no machine lost or double-counted.
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.restore(0, PoolType::kToken);
    cluster.scheduleFailure(0, sim::secondsToUs(2),
                            /*downtime_us=*/sim::secondsToUs(3));

    const auto trace = uniformTrace(30, 0.3, 1200, 30);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed() + report.rejected, 30u);
    EXPECT_EQ(report.rejoins, 1u);
    EXPECT_TRUE(cls.contains(0));
    EXPECT_EQ(cls.poolOf(0), PoolType::kToken);
    EXPECT_EQ(cls.originOf(0), PoolType::kToken);
    EXPECT_EQ(cls.liveMachines(), 4u);
    EXPECT_EQ(cls.standbySize(), 0u);
    EXPECT_EQ(cls.retires(), 1u);
    EXPECT_EQ(cls.restores(), 1u);
}

TEST(ClsTest, FailedWhileMixedRejoinsOriginPool)
{
    // A token machine pulled into the mixed pool by a prompt burst
    // crashes there; after recovery it must sit in its origin token
    // pool with no mixed-pool residue.
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    for (int i = 24; i < 40; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::secondsToUs(6 + (i - 24) / 4.0), 1200, 20});
    }
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    cluster.scheduleFailure(1, sim::msToUs(50),
                            /*downtime_us=*/sim::secondsToUs(2));
    const RunReport report = cluster.run(trace);

    EXPECT_GT(report.mixedRoutes, 0u);
    EXPECT_EQ(report.rejoins, 1u);
    EXPECT_EQ(report.requests.completed() + report.rejected, 40u);
    const auto& cls = cluster.scheduler();
    EXPECT_EQ(cls.poolOf(1), PoolType::kToken);
    EXPECT_EQ(cls.originOf(1), PoolType::kToken);
    EXPECT_EQ(cls.liveMachines(), 4u);
    // Every machine drained back to its origin pool.
    for (int id = 0; id < 4; ++id)
        EXPECT_EQ(cls.poolOf(id), cls.originOf(id)) << "machine " << id;
}

/** Per-machine (prompt tokens processed, tokens generated) after a
 *  run: with requests of distinct sizes, this pins where each landed. */
std::vector<std::pair<std::int64_t, std::int64_t>>
placement(const Cluster& cluster)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (const auto& m : cluster.machines())
        out.emplace_back(m->stats().promptTokensProcessed,
                         m->stats().tokensGenerated);
    return out;
}

TEST(ClsTest, RoutingIgnoresRetireRestoreAndRejoinHistory)
{
    // Arrivals 1 s apart each find every machine idle, so every JSQ
    // decision is a full tie. Distinct prompt sizes make the
    // per-machine totals a fingerprint of where each request ran.
    workload::Trace trace;
    for (int i = 0; i < 24; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::secondsToUs(i), 100 + 7 * i, 3 + i % 4});
    }
    for (const RoutingPolicy routing :
         {RoutingPolicy::kJsq, RoutingPolicy::kRandom}) {
        SimConfig config;
        config.cls.routing = routing;
        config.cls.routingSeed = 7;
        Cluster fresh(model::llama2_70b(), splitwiseHH(3, 3), config);
        Cluster cycled(model::llama2_70b(), splitwiseHH(3, 3), config);
        auto& cls = cycled.scheduler();
        cls.retire(0);
        cls.restore(0);
        cls.markFailed(1);
        cls.rejoin(1);
        fresh.run(trace);
        cycled.run(trace);
        EXPECT_EQ(placement(fresh), placement(cycled))
            << (routing == RoutingPolicy::kJsq ? "jsq" : "random");
        if (routing == RoutingPolicy::kJsq) {
            // Ties go to the lowest id: prompt machine 0, token
            // machine 3 take every request.
            const auto jsq = placement(cycled);
            for (std::size_t id : {1u, 2u, 4u, 5u}) {
                EXPECT_EQ(jsq[id].first, 0) << "machine " << id;
                EXPECT_EQ(jsq[id].second, 0) << "machine " << id;
            }
            EXPECT_GT(jsq[0].first, 0);
            EXPECT_GT(jsq[3].second, 0);
        }
    }
}

TEST(ClsTest, BaselineRoutesWholeRequestsByLoad)
{
    const auto trace = uniformTrace(12, 0.05, 1500, 30);
    Cluster cluster(model::llama2_70b(), baselineH100(3));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 12u);
    for (const auto& m : cluster.machines())
        EXPECT_GT(m->stats().tokensGenerated, 0);
}

}  // namespace
}  // namespace splitwise::core
