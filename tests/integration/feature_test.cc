#include <gtest/gtest.h>

#include <limits>

#include "core/cluster.h"
#include "core/designs.h"
#include "engine/machine.h"
#include "model/llm_config.h"
#include "provision/provisioner.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise {
namespace {

using core::Cluster;
using core::RunReport;
using core::SimConfig;

workload::Trace
convTrace(double rps, double seconds, std::uint64_t seed = 9)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

// --- Machine-level capacity signals ---

TEST(MachineCapacity, MaxBatchWithinTbtIsMachineTypeAware)
{
    sim::Simulator simulator;
    const model::AnalyticalPerfModel h100_perf(model::llama2_70b(),
                                               hw::dgxH100());
    const model::AnalyticalPerfModel a100_perf(model::llama2_70b(),
                                               hw::dgxA100());
    const model::MemoryModel h100_mem(model::llama2_70b(), hw::dgxH100());
    const model::MemoryModel a100_mem(model::llama2_70b(), hw::dgxA100());
    engine::Machine h100(simulator, 0, hw::dgxH100(), h100_perf, h100_mem,
                         {}, {});
    engine::Machine a100(simulator, 1, hw::dgxA100(), a100_perf, a100_mem,
                         {}, {});
    const core::SloChecker ref(model::llama2_70b());
    const double bound = 1.25 * ref.refTbtMs(1200);
    // H100s fit far larger latency-efficient decode batches.
    EXPECT_GT(h100.maxBatchWithinTbt(bound),
              1.5 * a100.maxBatchWithinTbt(bound));
    // The bound is respected.
    const int b = h100.maxBatchWithinTbt(bound);
    EXPECT_LE(sim::usToMs(h100_perf.tokenTime(b, b * 1200)), bound);
    EXPECT_GT(sim::usToMs(h100_perf.tokenTime(b + 1, (b + 1) * 1200)),
              bound);
}

TEST(MachineCapacity, DecodeBatchCappedAtThroughputOptimum)
{
    // Even with hundreds of residents, the MLS never schedules a
    // decode batch past the point where throughput starts falling
    // (the quadratic penalty makes batch 256 slower than batch 64).
    sim::Simulator simulator;
    const model::AnalyticalPerfModel perf(model::llama2_70b(),
                                          hw::dgxH100());
    const model::MemoryModel mem(model::llama2_70b(), hw::dgxH100());
    engine::MlsConfig config;
    config.maxBatchSize = 256;
    engine::Machine machine(simulator, 0, hw::dgxH100(), perf, mem, config,
                            {});
    EXPECT_LE(machine.mls().config().maxBatchSize, 80);
    EXPECT_GE(machine.mls().config().maxBatchSize, 40);
}

// --- Chunked prefill at cluster level ---

TEST(ChunkedPrefillCluster, ShrinksWorstGapAtTtftCost)
{
    const auto trace = convTrace(16.0, 30);
    SimConfig whole;
    SimConfig chunked;
    chunked.mls.promptChunkTokens = 256;

    Cluster a(model::llama2_70b(), core::baselineH100(6), whole);
    Cluster b(model::llama2_70b(), core::baselineH100(6), chunked);
    const RunReport whole_report = a.run(trace);
    const RunReport chunk_report = b.run(trace);

    // Bounded prompt slices cap the decode stall...
    EXPECT_LT(chunk_report.requests.maxTbtStats().p90,
              0.7 * whole_report.requests.maxTbtStats().p90);
    // ...at the price of slower first tokens.
    EXPECT_GT(chunk_report.requests.ttftStats().p50,
              whole_report.requests.ttftStats().p50);
    EXPECT_EQ(chunk_report.requests.completed(), trace.size());
}

// --- Second-token bookkeeping ---

TEST(SecondTokenAccounting, TransferGapExcludedFromStreamingTail)
{
    // A lightly loaded Splitwise pair: the only large gap each
    // request sees is the transfer-bearing second token, which must
    // land in secondTokenMs, not maxTbtMs.
    workload::Trace trace;
    for (int i = 0; i < 20; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::secondsToUs(i * 1.0), 2000, 20});
    }
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    for (const auto& r : report.requests.results()) {
        EXPECT_GT(r.secondTokenMs, r.tbtMs);
        EXPECT_LT(r.maxTbtMs, r.secondTokenMs);
    }
}

// --- Forced-serialized transfer configuration ---

TEST(TransferConfig, HugeThresholdForcesSerialized)
{
    const auto trace = convTrace(4.0, 20);
    SimConfig config;
    config.layerwiseThresholdTokens = std::numeric_limits<std::int64_t>::max();
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);
    EXPECT_GT(report.transfers.transfers, 0u);
    EXPECT_EQ(report.transfers.layerwiseTransfers, 0u);
}

TEST(TransferConfig, ZeroThresholdForcesLayerwise)
{
    const auto trace = convTrace(4.0, 20);
    SimConfig config;
    config.layerwiseThresholdTokens = 0;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);
    EXPECT_GT(report.transfers.transfers, 0u);
    EXPECT_EQ(report.transfers.layerwiseTransfers,
              report.transfers.transfers);
}

TEST(TransferConfig, CompressionReducesBytesMoved)
{
    const auto trace = convTrace(4.0, 20);
    SimConfig raw;
    SimConfig compressed;
    compressed.kvCompressionRatio = 4.0;
    Cluster a(model::llama2_70b(), core::splitwiseHH(2, 2), raw);
    Cluster b(model::llama2_70b(), core::splitwiseHH(2, 2), compressed);
    const RunReport ra = a.run(trace);
    const RunReport rb = b.run(trace);
    EXPECT_NEAR(static_cast<double>(rb.transfers.bytesMoved),
                static_cast<double>(ra.transfers.bytesMoved) / 4.0,
                static_cast<double>(ra.transfers.bytesMoved) * 0.01);
    // Less wire time -> second tokens no slower than raw.
    metrics::Summary second_raw;
    metrics::Summary second_comp;
    for (const auto& r : ra.requests.results())
        if (r.outputTokens > 1)
            second_raw.add(r.secondTokenMs);
    for (const auto& r : rb.requests.results())
        if (r.outputTokens > 1)
            second_comp.add(r.secondTokenMs);
    EXPECT_LE(second_comp.p50(), second_raw.p50() + 0.5);
}

// --- CLS behaviours ---

TEST(ClsBehaviour, TokenSloBoundDerivedFromReference)
{
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    // The Cluster wires a positive TBT bound into the CLS by default;
    // exercised indirectly: a run at moderate load must not leave
    // token machines over their latency-efficient batch on average.
    const auto trace = convTrace(6.0, 20);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(ClsBehaviour, OverloadDevolvesToLocalExecution)
{
    // 30x the sustainable load on a tiny cluster: the CLS must stop
    // splitting once everything is saturated (SVI-E), so a large
    // fraction of requests never transfer.
    const auto trace = convTrace(60.0, 10);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());
    EXPECT_LT(report.transfers.transfers, trace.size() / 2);
}

TEST(ClsBehaviour, PromptOriginMachinesKeepTakingPromptsWhileMixed)
{
    // Under decode spillover, prompt machines enter the mixed pool
    // but must keep serving prompt work (identity retention, SIV-A):
    // TTFT should stay bounded rather than collapse onto fewer
    // machines.
    const auto trace = convTrace(30.0, 20);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(4, 4));
    const RunReport report = cluster.run(trace);
    std::int64_t prompt_pool_tokens = 0;
    for (int i = 0; i < 4; ++i) {
        prompt_pool_tokens +=
            cluster.machines()[static_cast<std::size_t>(i)]
                ->stats()
                .promptTokensProcessed;
    }
    // The prompt pool still did the overwhelming share of prompts.
    EXPECT_GT(prompt_pool_tokens,
              report.requests.totalPromptTokens() * 6 / 10);
}

// --- Provisioner determinism ---

TEST(ProvisionerDeterminism, RepeatedSearchesAgree)
{
    provision::ProvisionerOptions options;
    options.traceDuration = sim::secondsToUs(10);
    options.rpsTolerance = 4.0;
    options.promptFractions = {0.5};
    const provision::Provisioner a(model::llama2_70b(),
                                   workload::conversation(), options);
    const provision::Provisioner b(model::llama2_70b(),
                                   workload::conversation(), options);
    const auto design = core::splitwiseHH(2, 2);
    EXPECT_DOUBLE_EQ(a.maxThroughput(design), b.maxThroughput(design));
}

}  // namespace
}  // namespace splitwise
