#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/fault_plan.h"
#include "core/report_io.h"
#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "model/perf_model.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise {
namespace {

using core::Cluster;
using core::FaultInjector;
using core::FaultKind;
using core::FaultPlan;
using core::FaultStormConfig;
using core::RunReport;

workload::Trace
convTrace(double rps, double seconds, std::uint64_t seed = 77)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

/** Uncontended prompt time for @p tokens on a DGX-H100. */
sim::TimeUs
h100PromptTime(std::int64_t tokens)
{
    const model::AnalyticalPerfModel perf(model::llama2_70b(),
                                          hw::dgxH100());
    return perf.promptTime(tokens, 1);
}

/**
 * Tentpole acceptance: a machine that crashes with finite downtime
 * rejoins its pool and serves requests again afterwards.
 */
TEST(ChaosTest, CrashedMachineRejoinsAndServesAgain)
{
    const auto trace = convTrace(10.0, 30);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    // Token machine 3: down at t=5s, back at t=15s.
    cluster.scheduleFailure(3, sim::secondsToUs(5),
                            sim::secondsToUs(10));

    std::int64_t load_while_down = -1;
    bool failed_while_down = false;
    std::int64_t generated_at_recovery = -1;
    std::int64_t load_after_recovery = -1;
    bool failed_after_recovery = true;
    auto& sim = cluster.simulator();
    const auto* machine = cluster.machines()[3].get();
    sim.post(sim::secondsToUs(14), [&] {
        failed_while_down = machine->failed();
        load_while_down = machine->tokenLoadTokens();
    });
    sim.post(sim::secondsToUs(15) + 1, [&] {
        generated_at_recovery = machine->stats().tokensGenerated;
    });
    sim.post(sim::secondsToUs(20), [&] {
        failed_after_recovery = machine->failed();
        load_after_recovery = machine->tokenLoadTokens();
    });

    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_GT(report.restarts, 0u);
    EXPECT_EQ(report.rejoins, 1u);

    // Down means down: no KV, failed flag set.
    EXPECT_TRUE(failed_while_down);
    EXPECT_EQ(load_while_down, 0);

    // Back means back: the rejoined machine holds decode work again
    // and keeps generating tokens after its recovery instant.
    EXPECT_FALSE(failed_after_recovery);
    EXPECT_GT(load_after_recovery, 0);
    EXPECT_GE(generated_at_recovery, 0);
    EXPECT_GT(machine->stats().tokensGenerated, generated_at_recovery);
    EXPECT_FALSE(cluster.machines()[3]->failed());
}

TEST(ChaosTest, RejoinedMachineKeepsPoolIdentity)
{
    const auto trace = convTrace(8.0, 25);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    cluster.scheduleFailure(0, sim::secondsToUs(4), sim::secondsToUs(6));

    core::PoolType pool_after = core::PoolType::kMixed;
    cluster.simulator().post(sim::secondsToUs(11), [&] {
        pool_after = cluster.scheduler().poolOf(0);
    });
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_EQ(report.rejoins, 1u);
    EXPECT_EQ(pool_after, core::PoolType::kPrompt);
}

/**
 * Tentpole acceptance: a transfer hit by a transient link fault
 * completes via retry with backoff - no from-scratch restart.
 */
TEST(ChaosTest, TransientLinkFaultRecoversViaRetry)
{
    workload::Trace trace;
    trace.push_back({0, 0, /*prompt=*/1500, /*output=*/20});

    const sim::TimeUs prompt_us = h100PromptTime(1500);
    core::SimConfig config;
    config.kvRetry.maxRetries = 5;
    config.kvRetry.backoffBaseUs = 2 * prompt_us;
    config.kvRetry.backoffMultiplier = 2.0;

    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1),
                    config);
    // The fault window covers the first transfer attempt (which
    // starts right after the prompt completes) but ends before the
    // first backed-off retry lands.
    cluster.scheduleLinkFault(1, 0, 2 * prompt_us);

    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 1u);
    EXPECT_GT(report.transfers.transferFaults, 0u);
    EXPECT_GT(report.transfers.transferRetries, 0u);
    EXPECT_EQ(report.transfers.transferAborts, 0u);
    EXPECT_EQ(report.restarts, 0u);
    // The decode ran remotely: the retry delivered the cache.
    EXPECT_GT(cluster.machines()[1]->stats().tokensGenerated, 0);
}

/**
 * Tentpole acceptance: an exhausted retry budget falls back to the
 * paper's from-scratch restart.
 */
TEST(ChaosTest, ExhaustedRetryBudgetFallsBackToRestart)
{
    workload::Trace trace;
    trace.push_back({0, 0, /*prompt=*/1500, /*output=*/20});

    const sim::TimeUs prompt_us = h100PromptTime(1500);
    core::SimConfig config;
    config.kvRetry.maxRetries = 0;  // fail fast
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1),
                    config);
    cluster.scheduleLinkFault(1, 0, 2 * prompt_us);

    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 1u);
    EXPECT_GT(report.transfers.transferAborts, 0u);
    EXPECT_EQ(report.transfers.transferRetries, 0u);
    EXPECT_GT(report.restarts, 0u);
}

TEST(ChaosTest, DegradedLinkStretchesTransferButCompletes)
{
    workload::Trace trace;
    trace.push_back({0, 0, /*prompt=*/256, /*output=*/10});

    Cluster slow(model::llama2_70b(), core::splitwiseHH(1, 1));
    // 2% of nominal bandwidth across the whole run: the serialized
    // transfer takes ~50x longer, visible on the second token.
    slow.scheduleLinkDegrade(1, 0, sim::secondsToUs(60), 0.02);
    const RunReport degraded = slow.run(trace);

    Cluster fast(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport clean = fast.run(trace);

    EXPECT_EQ(degraded.requests.completed(), 1u);
    EXPECT_GT(degraded.transfers.degradedTransfers, 0u);
    EXPECT_EQ(clean.transfers.degradedTransfers, 0u);
    EXPECT_GT(degraded.requests.results()[0].secondTokenMs,
              clean.requests.results()[0].secondTokenMs);
}

TEST(ChaosTest, StragglerIsRoutedAround)
{
    const auto trace = convTrace(10.0, 20);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    // Prompt machine 0 runs 4x slower for most of the run; JSQ sees
    // its queue build and shifts prompt work to machine 1.
    cluster.scheduleSlowdown(0, sim::secondsToUs(1),
                             sim::secondsToUs(14), 4.0);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_EQ(report.restarts, 0u);
    EXPECT_GT(cluster.machines()[1]->stats().promptTokensProcessed,
              cluster.machines()[0]->stats().promptTokensProcessed);
}

/** Overload protection: shed, count, and degrade gracefully. */
TEST(ChaosTest, OverloadShedsInsteadOfQueueingUnboundedly)
{
    const auto trace = convTrace(40.0, 10);
    core::SimConfig config;
    config.cls.shedQueuedTokensBound = 20000;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1),
                    config);
    const RunReport report = cluster.run(trace);
    EXPECT_GT(report.rejected, 0u);
    EXPECT_GT(report.requests.completed(), 0u);
    // Nothing silently dropped: every request either completed or
    // was explicitly rejected.
    EXPECT_EQ(report.requests.completed() + report.rejected, trace.size());
}

TEST(ChaosTest, SheddingDisabledByDefault)
{
    const auto trace = convTrace(15.0, 10);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.rejected, 0u);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(ChaosTest, FaultStormAccountsForEveryRequest)
{
    const auto trace = convTrace(8.0, 25);
    FaultStormConfig storm;
    storm.numMachines = 6;
    storm.horizonUs = sim::secondsToUs(20.0);
    storm.crashes = 2;
    const FaultPlan plan = makeFaultStorm(storm, 123);

    core::SimConfig config;
    config.cls.shedQueuedTokensBound = 200000;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(3, 3), config);
    FaultInjector injector(cluster);
    injector.apply(plan);

    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed() + report.rejected, trace.size());
    EXPECT_EQ(report.rejoins, plan.count(FaultKind::kCrash));
}

/**
 * Satellite acceptance: identical FaultPlan + seed => bit-identical
 * RunReport across two runs.
 */
TEST(ChaosTest, DeterministicUnderFaultStorm)
{
    const auto trace = convTrace(8.0, 20);
    FaultStormConfig storm;
    storm.numMachines = 6;
    storm.horizonUs = sim::secondsToUs(15.0);
    const FaultPlan plan = makeFaultStorm(storm, 9);

    auto run_once = [&] {
        core::SimConfig config;
        config.cls.shedQueuedTokensBound = 100000;
        config.kvRetry.maxRetries = 4;
        Cluster cluster(model::llama2_70b(), core::splitwiseHH(3, 3),
                        config);
        FaultInjector injector(cluster);
        injector.apply(plan);
        return cluster.run(trace);
    };
    const RunReport a = run_once();
    const RunReport b = run_once();

    EXPECT_EQ(a.requests.completed(), b.requests.completed());
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.rejoins, b.rejoins);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.simulatedUs, b.simulatedUs);
    EXPECT_EQ(a.transfers.transfers, b.transfers.transfers);
    EXPECT_EQ(a.transfers.transferFaults, b.transfers.transferFaults);
    EXPECT_EQ(a.transfers.transferRetries, b.transfers.transferRetries);
    EXPECT_EQ(a.transfers.transferAborts, b.transfers.transferAborts);
    EXPECT_EQ(a.transfers.degradedTransfers, b.transfers.degradedTransfers);
    EXPECT_EQ(a.transfers.bytesMoved, b.transfers.bytesMoved);
    // Bit-identical latencies, not merely close.
    EXPECT_EQ(a.requests.e2eStats().mean, b.requests.e2eStats().mean);
    EXPECT_EQ(a.requests.e2eStats().p99, b.requests.e2eStats().p99);
    EXPECT_EQ(a.requests.ttftStats().mean, b.requests.ttftStats().mean);
    EXPECT_EQ(a.requests.tbtStats().mean, b.requests.tbtStats().mean);
    // And identical serialized reports.
    EXPECT_EQ(core::reportToJson(a), core::reportToJson(b));
}

TEST(ChaosTest, ReportJsonCarriesFaultCounters)
{
    const auto trace = convTrace(5.0, 10);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    cluster.scheduleFailure(3, sim::secondsToUs(3), sim::secondsToUs(4));
    const RunReport report = cluster.run(trace);
    const std::string json = core::reportToJson(report);
    for (const char* key :
         {"\"retries\"", "\"faults\"", "\"aborts\"", "\"degraded\"",
          "\"rejected\"", "\"rejoins\"", "\"timeouts\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(ChaosTest, PermanentCrashStillSupported)
{
    // The legacy single-shot failure path (downtime 0 via the fault
    // plan) must behave exactly like scheduleFailure(id, at).
    const auto trace = convTrace(6.0, 15);
    FaultPlan plan;
    plan.add({FaultKind::kCrash, 2, sim::secondsToUs(5), 0, 1.0});
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    FaultInjector injector(cluster);
    injector.apply(plan);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_EQ(report.rejoins, 0u);
    EXPECT_TRUE(cluster.machines()[2]->failed());
}

TEST(ChaosTest, FaultSchedulingAfterRunRejected)
{
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    cluster.run({});
    EXPECT_THROW(cluster.scheduleSlowdown(0, 0, 1000, 2.0),
                 std::runtime_error);
    EXPECT_THROW(cluster.scheduleLinkFault(0, 0, 1000),
                 std::runtime_error);
    EXPECT_THROW(cluster.scheduleFailure(0, 0, 1000), std::runtime_error);
}

}  // namespace
}  // namespace splitwise
