#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "engine/block_manager.h"
#include "hw/machine_spec.h"
#include "metrics/summary.h"
#include "model/llm_config.h"
#include "model/perf_model.h"
#include "model/transfer_model.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise {
namespace {

// ---------------------------------------------------------------
// Performance-model invariants, swept over every (model, machine)
// pair via parameterized tests.
// ---------------------------------------------------------------

using ModelMachine = std::tuple<const char*, const char*>;

class PerfModelProperties : public ::testing::TestWithParam<ModelMachine> {
  protected:
    static model::LlmConfig
    llm()
    {
        return std::string(std::get<0>(GetParam())) == "llama"
                   ? model::llama2_70b()
                   : model::bloom_176b();
    }

    static hw::MachineSpec
    machine()
    {
        const std::string name = std::get<1>(GetParam());
        if (name == "a100")
            return hw::dgxA100();
        if (name == "h100")
            return hw::dgxH100();
        return hw::dgxH100Capped();
    }
};

TEST_P(PerfModelProperties, PromptTimeMonotoneInTokens)
{
    const model::AnalyticalPerfModel m(llm(), machine());
    sim::TimeUs prev = 0;
    for (std::int64_t p = 64; p <= 16384; p *= 2) {
        const sim::TimeUs t = m.promptTime(p, 1);
        ASSERT_GE(t, prev) << "prompt " << p;
        prev = t;
    }
}

TEST_P(PerfModelProperties, TokenTimeMonotoneInBatch)
{
    const model::AnalyticalPerfModel m(llm(), machine());
    sim::TimeUs prev = 0;
    for (int b = 1; b <= 256; b *= 2) {
        const sim::TimeUs t = m.tokenTime(b, 1000LL * b);
        ASSERT_GE(t, prev) << "batch " << b;
        prev = t;
    }
}

TEST_P(PerfModelProperties, TokenTimeMonotoneInContext)
{
    const model::AnalyticalPerfModel m(llm(), machine());
    sim::TimeUs prev = 0;
    for (std::int64_t k = 0; k <= 1 << 20; k = k == 0 ? 1024 : k * 4) {
        const sim::TimeUs t = m.tokenTime(8, k);
        ASSERT_GE(t, prev) << "context " << k;
        prev = t;
    }
}

TEST_P(PerfModelProperties, MixedAtLeastAsSlowAsParts)
{
    const model::AnalyticalPerfModel m(llm(), machine());
    sim::Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        model::IterationShape shape;
        shape.promptTokens = rng.uniformInt(1, 4096);
        shape.promptRequests = static_cast<int>(rng.uniformInt(1, 4));
        shape.tokenRequests = static_cast<int>(rng.uniformInt(1, 64));
        shape.contextTokens = rng.uniformInt(0, 2000) * shape.tokenRequests;
        const sim::TimeUs mixed = m.iterationTime(shape);
        ASSERT_GE(mixed,
                  m.promptTime(shape.promptTokens, shape.promptRequests));
        ASSERT_GE(mixed + 1,
                  m.tokenTime(shape.tokenRequests, shape.contextTokens));
    }
}

TEST_P(PerfModelProperties, TimesArePositiveAndFinite)
{
    const model::AnalyticalPerfModel m(llm(), machine());
    sim::Rng rng(33);
    for (int i = 0; i < 200; ++i) {
        const auto p = rng.uniformInt(1, 20000);
        const auto b = static_cast<int>(rng.uniformInt(1, 256));
        const auto k = rng.uniformInt(0, 1 << 21);
        ASSERT_GT(m.promptTime(p, 1), 0);
        ASSERT_LT(m.promptTime(p, 1), sim::secondsToUs(60));
        ASSERT_GT(m.tokenTime(b, k), 0);
        ASSERT_LT(m.tokenTime(b, k), sim::secondsToUs(10));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PerfModelProperties,
    ::testing::Combine(::testing::Values("llama", "bloom"),
                       ::testing::Values("a100", "h100", "h100cap")),
    [](const ::testing::TestParamInfo<ModelMachine>& info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

// ---------------------------------------------------------------
// Transfer-model invariants across link types and prompt sizes.
// ---------------------------------------------------------------

class TransferProperties : public ::testing::TestWithParam<const char*> {
  protected:
    static hw::LinkSpec
    link()
    {
        const std::string name = GetParam();
        if (name == "hh")
            return hw::linkBetween(hw::dgxH100(), hw::dgxH100());
        if (name == "aa")
            return hw::linkBetween(hw::dgxA100(), hw::dgxA100());
        return hw::linkBetween(hw::dgxH100(), hw::dgxA100());
    }
};

TEST_P(TransferProperties, PlanVisibleNeverWorseThanSerialized)
{
    const model::TransferModel t(model::llama2_70b(), link());
    const model::AnalyticalPerfModel perf(model::llama2_70b(),
                                          hw::dgxH100());
    for (std::int64_t p = 16; p <= 16384; p *= 2) {
        const auto plan = t.plan(p, perf.promptTime(p, 1));
        ASSERT_LE(plan.visibleUs, t.serializedTime(p) + 1) << "prompt " << p;
        ASSERT_GE(plan.visibleUs, 0);
        ASSERT_GE(plan.interferenceUs, 0);
    }
}

TEST_P(TransferProperties, WireTimeMonotone)
{
    const model::TransferModel t(model::bloom_176b(), link());
    sim::TimeUs prev = 0;
    for (std::int64_t p = 1; p <= 16384; p *= 4) {
        const auto wire = t.plan(p, 0).wireUs;
        ASSERT_GE(wire, prev);
        prev = wire;
    }
}

INSTANTIATE_TEST_SUITE_P(AllLinks, TransferProperties,
                         ::testing::Values("hh", "aa", "ha"));

// ---------------------------------------------------------------
// BlockManager randomized-operations check against a reference
// model (a simple map of token counts).
// ---------------------------------------------------------------

TEST(BlockManagerProperty, RandomOpsMatchReferenceModel)
{
    const std::int64_t capacity = 4096;
    const int block = 16;
    engine::BlockManager bm(capacity, block);
    std::vector<engine::LiveRequest> requests(21);
    std::map<std::uint64_t, std::int64_t> reference;  // id -> tokens
    sim::Rng rng(12345);

    auto blocks_for = [&](std::int64_t tokens) {
        return (tokens + block - 1) / block;
    };
    auto used_blocks = [&] {
        std::int64_t total = 0;
        for (const auto& [id, tokens] : reference)
            total += blocks_for(tokens);
        return total;
    };

    for (int step = 0; step < 5000; ++step) {
        const int op = static_cast<int>(rng.uniformInt(0, 2));
        const std::uint64_t id = static_cast<std::uint64_t>(
            rng.uniformInt(0, 20));
        engine::LiveRequest& req = requests[id];
        if (op == 0) {
            const std::int64_t tokens = rng.uniformInt(0, 600);
            const bool expect_ok =
                reference.count(id) == 0 &&
                blocks_for(tokens) <= capacity / block - used_blocks();
            ASSERT_EQ(bm.allocate(req, tokens), expect_ok) << "step " << step;
            if (expect_ok)
                reference[id] = tokens;
        } else if (op == 1) {
            const std::int64_t grow = rng.uniformInt(0, 64);
            const auto it = reference.find(id);
            if (it == reference.end()) {
                ASSERT_FALSE(bm.extend(req, grow));
            } else {
                const std::int64_t target = it->second + grow;
                const std::int64_t need =
                    blocks_for(target) - blocks_for(it->second);
                const bool expect_ok =
                    need <= capacity / block - used_blocks();
                ASSERT_EQ(bm.extend(req, target), expect_ok)
                    << "step " << step;
                if (expect_ok)
                    it->second = target;
            }
        } else {
            bm.release(req);
            reference.erase(id);
        }
        // Aggregate invariants hold after every operation.
        std::int64_t ref_tokens = 0;
        for (const auto& [rid, tokens] : reference)
            ref_tokens += tokens;
        ASSERT_EQ(bm.usedTokens(), ref_tokens);
        ASSERT_EQ(bm.freeBlocks(), capacity / block - used_blocks());
        ASSERT_EQ(bm.residents(), reference.size());
    }
}

// ---------------------------------------------------------------
// Summary percentiles against a sort-based reference.
// ---------------------------------------------------------------

TEST(SummaryProperty, PercentilesMatchSortedReference)
{
    // Samples arrive in rounds with queries in between, so a query
    // that sorted the store in place must not leave a later query
    // reading a half-sorted one.
    sim::Rng rng(777);
    for (int trial = 0; trial < 20; ++trial) {
        metrics::Summary s;
        std::vector<double> values;
        const int rounds = static_cast<int>(rng.uniformInt(1, 4));
        for (int round = 0; round < rounds; ++round) {
            const int m = static_cast<int>(rng.uniformInt(1, 200));
            for (int i = 0; i < m; ++i) {
                const double v = rng.uniform(0.0, 1000.0);
                s.add(v);
                values.push_back(v);
            }
            std::sort(values.begin(), values.end());
            const auto n = values.size();
            ASSERT_EQ(s.count(), n);
            for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
                const double rank = p / 100.0 * static_cast<double>(n - 1);
                const auto lo = static_cast<std::size_t>(rank);
                const auto hi = std::min<std::size_t>(lo + 1, n - 1);
                const double frac = rank - static_cast<double>(lo);
                const double expected =
                    values[lo] + (values[hi] - values[lo]) * frac;
                ASSERT_NEAR(s.percentile(p), expected, 1e-9)
                    << "trial " << trial << " round " << round << " p"
                    << p;
            }
            ASSERT_EQ(s.min(), values.front());
            ASSERT_EQ(s.max(), values.back());
        }
    }
}

// ---------------------------------------------------------------
// EventQueue randomized post/pop against a reference model: a sorted
// set of (time, priority, insertion) keys. Each action records its
// own key, so a pop checks the tie-breaks, not just the time.
// ---------------------------------------------------------------

TEST(EventQueueProperty, RandomOpsMatchReferenceModel)
{
    using Key = std::tuple<std::int64_t, int, std::uint64_t>;
    sim::EventQueue queue;
    std::set<Key> reference;
    std::uint64_t inserted = 0;
    Key fired{};
    sim::Rng rng(4242);

    auto pop_and_check = [&] {
        sim::Event ev = queue.pop();
        ev.action();
        ASSERT_EQ(fired, *reference.begin());
        ASSERT_EQ(ev.time, std::get<0>(fired));
        reference.erase(reference.begin());
    };

    for (int step = 0; step < 4000; ++step) {
        // Two posts per pop on average, so the heap grows deep; narrow
        // time and priority ranges make ties common.
        if (reference.empty() || rng.uniformInt(0, 2) != 0) {
            const Key key{rng.uniformInt(0, 200),
                          static_cast<int>(rng.uniformInt(0, 2)),
                          inserted++};
            queue.post(
                std::get<0>(key), [&fired, key] { fired = key; },
                std::get<1>(key));
            reference.insert(key);
        } else {
            pop_and_check();
            ASSERT_FALSE(HasFatalFailure()) << "step " << step;
        }
        ASSERT_EQ(queue.size(), reference.size());
        ASSERT_EQ(queue.nextTime(), reference.empty()
                                        ? sim::kTimeNever
                                        : std::get<0>(*reference.begin()));
        ASSERT_EQ(queue.integrityError(), "") << "step " << step;
    }
    while (!reference.empty()) {
        pop_and_check();
        ASSERT_FALSE(HasFatalFailure());
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.integrityError(), "");
}

// ---------------------------------------------------------------
// Workload distribution invariants across both services.
// ---------------------------------------------------------------

class WorkloadProperties : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadProperties, QuantileIsMonotone)
{
    const auto& w = workload::workloadByName(GetParam());
    for (const auto* dist : {w.promptTokens.get(), w.outputTokens.get()}) {
        std::int64_t prev = 0;
        for (double q = 0.0; q <= 1.0; q += 0.01) {
            const auto v = dist->quantile(q);
            ASSERT_GE(v, prev) << "q=" << q;
            prev = v;
        }
    }
}

TEST_P(WorkloadProperties, SampleMatchesQuantileEnvelope)
{
    const auto& w = workload::workloadByName(GetParam());
    sim::Rng rng(31337);
    const auto lo = w.promptTokens->quantile(0.0);
    const auto hi = w.promptTokens->quantile(1.0);
    for (int i = 0; i < 2000; ++i) {
        const auto v = w.promptTokens->sample(rng);
        ASSERT_GE(v, std::max<std::int64_t>(1, lo));
        ASSERT_LE(v, hi);
    }
}

INSTANTIATE_TEST_SUITE_P(BothServices, WorkloadProperties,
                         ::testing::Values("coding", "conversation"));

// ---------------------------------------------------------------
// Whole-cluster conservation sweep across designs and loads.
// ---------------------------------------------------------------

using DesignLoad = std::tuple<int, int>;  // (design index, rps)

class ClusterConservation : public ::testing::TestWithParam<DesignLoad> {};

TEST_P(ClusterConservation, TokensConservedAndAllComplete)
{
    const auto [design_idx, rps] = GetParam();
    core::ClusterDesign designs[] = {
        core::baselineH100(3),
        core::splitwiseHH(2, 2),
        core::splitwiseHA(2, 2),
        core::splitwiseHHcap(2, 2),
    };
    workload::TraceGenerator gen(workload::conversation(), 1234);
    const auto trace =
        gen.generate(static_cast<double>(rps), sim::secondsToUs(15));
    std::int64_t prompt_total = 0;
    std::int64_t output_total = 0;
    for (const auto& r : trace) {
        prompt_total += r.promptTokens;
        output_total += r.outputTokens;
    }
    core::Cluster cluster(model::llama2_70b(),
                          designs[static_cast<std::size_t>(design_idx)]);
    const auto report = cluster.run(trace);
    ASSERT_EQ(report.requests.completed(), trace.size());
    ASSERT_EQ(report.requests.totalPromptTokens(), prompt_total);
    ASSERT_EQ(report.requests.totalOutputTokens(), output_total);
    ASSERT_EQ(report.promptPool.tokensGenerated +
                  report.tokenPool.tokensGenerated,
              output_total);
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndLoads, ClusterConservation,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(3, 8, 20)));

}  // namespace
}  // namespace splitwise
