#include "core/cls.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {

/** Reaches the scheduler's private routing picks. */
class ClusterSchedulerPeer {
  public:
    static engine::Machine*
    pickIn(ClusterScheduler& cls, PoolType pool, PoolType phase)
    {
        return cls.pickIn(pool, phase);
    }

    static engine::Machine*
    pickBaseline(ClusterScheduler& cls)
    {
        return cls.pickBaseline();
    }

    static bool
    tokenOverloaded(const ClusterScheduler& cls, const engine::Machine& m)
    {
        return cls.tokenOverloaded(m);
    }

    static sim::Rng& rng(ClusterScheduler& cls) { return cls.routingRng_; }
};

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
    EXPECT_LE(a.requests.ttftStats().p90, b.requests.ttftStats().p90 * 1.05);
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
    EXPECT_DOUBLE_EQ(a.requests.e2eStats().mean, b.requests.e2eStats().mean);
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

/** One machine as the scheduler's public accessors report it. */
struct RefEntry {
    engine::Machine* machine;
    bool routed;
    PoolType pool;
    PoolType origin;
};

/**
 * Brute-force reference router: the whole-fleet id-order scan the
 * member lists replace. Under JSQ, the least-loaded machine passing
 * @p ok (strict <, so ties go to the lowest id); under random
 * routing, count the eligible machines, make one draw, walk to it.
 */
engine::Machine*
referencePick(const std::vector<RefEntry>& fleet, RoutingPolicy routing,
              sim::Rng& rng, const std::function<bool(const RefEntry&)>& ok,
              const std::function<std::int64_t(const engine::Machine&)>& load)
{
    if (routing == RoutingPolicy::kJsq) {
        engine::Machine* best = nullptr;
        std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
        for (const RefEntry& e : fleet) {
            if (!e.routed || !ok(e))
                continue;
            if (load(*e.machine) < best_load) {
                best_load = load(*e.machine);
                best = e.machine;
            }
        }
        return best;
    }
    std::int64_t eligible = 0;
    for (const RefEntry& e : fleet)
        eligible += e.routed && ok(e);
    if (eligible == 0)
        return nullptr;
    std::int64_t k = rng.uniformInt(0, eligible - 1);
    for (const RefEntry& e : fleet) {
        if (e.routed && ok(e) && k-- == 0)
            return e.machine;
    }
    return nullptr;
}

/** Checks every route of @p cluster's scheduler against the
 *  reference; returns the number of failed comparisons. */
int
checkRoutesAgainstReference(Cluster& cluster)
{
    ClusterScheduler& cls = cluster.scheduler();
    const RoutingPolicy routing = cluster.config().cls.routing;
    std::vector<RefEntry> fleet;
    for (const auto& m : cluster.machines()) {
        fleet.push_back({m.get(), cls.contains(m->id()), cls.poolOf(m->id()),
                         cls.originOf(m->id())});
    }
    int failures = 0;
    auto expect_same = [&](engine::Machine* got, engine::Machine* want,
                           const char* what) {
        if (got != want) {
            ++failures;
            ADD_FAILURE() << what << ": got machine "
                          << (got ? got->id() : -1) << ", reference "
                          << (want ? want->id() : -1);
        }
    };

    for (const PoolType pool :
         {PoolType::kPrompt, PoolType::kToken, PoolType::kMixed}) {
        std::size_t count = 0;
        for (const RefEntry& e : fleet)
            count += e.routed && e.pool == pool;
        if (cls.poolSize(pool) != count) {
            ++failures;
            ADD_FAILURE() << poolTypeName(pool) << " pool size "
                          << cls.poolSize(pool) << ", reference " << count;
        }
    }

    // Both sides draw from the scheduler's stream as it stands, so
    // the same number of draws leaves the two streams equal.
    sim::Rng reference = ClusterSchedulerPeer::rng(cls);
    const std::pair<PoolType, PoolType> routes[] = {
        {PoolType::kPrompt, PoolType::kPrompt},
        {PoolType::kMixed, PoolType::kPrompt},
        {PoolType::kToken, PoolType::kPrompt},
        {PoolType::kToken, PoolType::kToken},
        {PoolType::kMixed, PoolType::kToken},
        {PoolType::kPrompt, PoolType::kToken},
    };
    for (const auto& [pool, phase] : routes) {
        const bool prompt = phase == PoolType::kPrompt;
        engine::Machine* want = referencePick(
            fleet, routing, reference,
            [pool, phase](const RefEntry& e) {
                return e.pool == pool ||
                       (pool == phase && e.pool == PoolType::kMixed &&
                        e.origin == phase);
            },
            [prompt](const engine::Machine& m) {
                return prompt ? m.promptQueueDepthTokens()
                              : m.tokenLoadTokens();
            });
        expect_same(ClusterSchedulerPeer::pickIn(cls, pool, phase), want,
                    prompt ? "prompt-phase pickIn" : "token-phase pickIn");
    }
    expect_same(ClusterSchedulerPeer::pickBaseline(cls),
                referencePick(
                    fleet, routing, reference,
                    [](const RefEntry&) { return true; },
                    [](const engine::Machine& m) {
                        return m.promptQueueDepthTokens() +
                               static_cast<std::int64_t>(
                                   m.mls().residentCount());
                    }),
                "baseline route");
    expect_same(
        cls.pickRecoveryTokenMachine(),
        referencePick(
            fleet, RoutingPolicy::kJsq, reference,
            [&cls](const RefEntry& e) {
                return (e.pool == PoolType::kToken ||
                        e.pool == PoolType::kMixed) &&
                       !e.machine->failed() &&
                       !ClusterSchedulerPeer::tokenOverloaded(cls,
                                                              *e.machine);
            },
            [](const engine::Machine& m) { return m.tokenLoadTokens(); }),
        "recovery token machine");
    if (reference.uniformInt(0, 1 << 30) !=
        ClusterSchedulerPeer::rng(cls).uniformInt(0, 1 << 30)) {
        ++failures;
        ADD_FAILURE() << "scheduler and reference drew different counts";
    }
    return failures;
}

TEST(ClsTest, MemberListsMatchWholeFleetScan)
{
    // A loaded run with overflow into the mixed pool, re-purposing
    // and two real crash/recover cycles. Between events a seeded
    // driver fails, rejoins, retires, restores and flexes machines,
    // then every route is compared with the whole-fleet scan.
    sim::Rng arrivals(11);
    workload::Trace trace;
    sim::TimeUs at = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        at += sim::msToUs(arrivals.exponential(1.0 / 15.0));
        trace.push_back({i, at, arrivals.uniformInt(200, 4000),
                         arrivals.uniformInt(5, 60)});
    }
    for (const bool splitwise : {true, false}) {
        for (const RoutingPolicy routing :
             {RoutingPolicy::kJsq, RoutingPolicy::kRandom}) {
            SCOPED_TRACE(std::string(splitwise ? "splitwise" : "baseline") +
                         (routing == RoutingPolicy::kJsq ? " jsq"
                                                         : " random"));
            SimConfig config;
            config.cls.routing = routing;
            config.cls.routingSeed = 5;
            config.cls.promptOverflowTokens = 2500;
            config.cls.repurposeAfterUs = sim::msToUs(50);
            Cluster cluster(model::llama2_70b(),
                            splitwise ? splitwiseHH(4, 4) : baselineH100(8),
                            config);
            // Machines 0 and 7 crash for real; the driver leaves them
            // alone so their failure path stays the cluster's own.
            cluster.scheduleFailure(0, sim::msToUs(400),
                                    /*downtime_us=*/sim::msToUs(700));
            cluster.scheduleFailure(7, sim::msToUs(900),
                                    /*downtime_us=*/sim::msToUs(500));
            ClusterScheduler& cls = cluster.scheduler();
            sim::Rng driver(23);
            std::vector<int> lost;
            std::uint64_t ops = 0;
            std::uint64_t checks = 0;
            int failures = 0;
            cluster.simulator().addTimeAdvanceHook([&](sim::TimeUs) {
                if (failures > 0)
                    return;
                ++checks;
                const int id = static_cast<int>(driver.uniformInt(1, 6));
                switch (driver.uniformInt(0, 7)) {
                  case 0:
                    if (cls.contains(id) && cls.liveMachines() > 3) {
                        cls.markFailed(id);
                        lost.push_back(id);
                        ++ops;
                    }
                    break;
                  case 1:
                    if (!lost.empty()) {
                        cls.rejoin(lost.back());
                        lost.pop_back();
                        ++ops;
                    }
                    break;
                  case 2:
                    if (cls.contains(id) && cls.liveMachines() > 3) {
                        cls.retire(id);
                        ++ops;
                    }
                    break;
                  case 3:
                    if (cls.inStandby(id)) {
                        cls.restore(id);
                        ++ops;
                    }
                    break;
                  case 4:
                    if (cls.inStandby(id)) {
                        cls.restore(id, static_cast<PoolType>(
                                            driver.uniformInt(0, 2)));
                        ++ops;
                    }
                    break;
                  default:
                    break;
                }
                failures += checkRoutesAgainstReference(cluster);
            });
            const RunReport report = cluster.run(trace);
            EXPECT_EQ(failures, 0);
            EXPECT_EQ(report.requests.completed() + report.rejected, 300u);
            EXPECT_GT(cls.rejoins(), 2u);
            EXPECT_GT(ops, 100u);
            EXPECT_GT(checks, 1000u);
            if (splitwise) {
                EXPECT_GT(report.mixedRoutes, 0u);
                EXPECT_GT(cls.repurposings(), 0u);
            }
        }
    }
}

}  // namespace
}  // namespace splitwise::core
