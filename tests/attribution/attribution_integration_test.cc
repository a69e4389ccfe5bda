/**
 * @file
 * Cluster-level latency-attribution tests: breakdown-sums-to-E2E,
 * SLO-breach exemplars, flow events in the Perfetto export, span
 * balance under fault storms, sketch-mode report determinism across
 * job counts, and flight-recorder capture on invariant violations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/report_io.h"
#include "model/llm_config.h"
#include "sim/run_pool.h"
#include "testing/fuzzer.h"
#include "testing/scenario.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

#include "../telemetry/json_checker.h"

namespace splitwise {
namespace {

using core::Cluster;
using core::RunReport;
using core::SimConfig;

workload::Trace
convTrace(double rps, double seconds, std::uint64_t seed = 7)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

TEST(AttributionIntegrationTest, BreakdownSumsToE2eOnClusterRun)
{
    const auto trace = convTrace(8.0, 15);
    SimConfig config;
    config.telemetry.spanTracking = true;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);

    ASSERT_NE(cluster.spanTracker(), nullptr);
    EXPECT_EQ(cluster.spanTracker()->liveCount(), 0u);
    EXPECT_EQ(cluster.spanTracker()->completedCount(),
              report.requests.completed());
    // Open timelines live in request rows, and every row retired.
    EXPECT_EQ(cluster.requestPool().liveCount(), 0u);

    const auto& bd = report.breakdown;
    ASSERT_TRUE(bd.enabled);
    EXPECT_EQ(bd.requests, report.requests.completed());
    ASSERT_GT(bd.e2eTotalMs, 0.0);

    // Contiguous timelines: attribution reproduces E2E exactly, and
    // the per-phase totals sum to the attributed total.
    EXPECT_NEAR(bd.attributedTotalMs / bd.e2eTotalMs, 1.0, 1e-9);
    double phase_sum = 0.0;
    for (const auto& ps : bd.phases)
        phase_sum += ps.totalMs;
    EXPECT_NEAR(phase_sum / bd.e2eTotalMs, 1.0, 1e-9);

    // And the span-side E2E agrees with the metrics-side E2E (same
    // arrival/completion instants, independent bookkeeping) well
    // inside the 0.5% acceptance bound.
    double metrics_e2e = 0.0;
    for (const auto& r : report.requests.results())
        metrics_e2e += r.e2eMs;
    EXPECT_NEAR(bd.e2eTotalMs / metrics_e2e, 1.0, 0.005);
}

TEST(AttributionIntegrationTest, BreakdownSectionGatedInReportJson)
{
    const auto trace = convTrace(4.0, 8);
    auto run_once = [&](bool spans) {
        SimConfig config;
        config.telemetry.spanTracking = spans;
        Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1),
                        config);
        return core::reportToJson(cluster.run(trace));
    };
    const std::string with = run_once(true);
    const std::string without = run_once(false);

    test_json::Checker checker(with);
    EXPECT_TRUE(checker.valid())
        << "parse error near " << with.substr(checker.errorAt(), 40);
    EXPECT_NE(with.find("\"breakdown\""), std::string::npos);
    for (const char* phase : {"\"queue\"", "\"prefill\"", "\"kv_transfer\"",
                              "\"decode\"", "\"restart_penalty\""})
        EXPECT_NE(with.find(phase), std::string::npos) << phase;
    // Untracked runs keep the exact pre-existing schema.
    EXPECT_EQ(without.find("\"breakdown\""), std::string::npos);
}

TEST(AttributionIntegrationTest, OverloadYieldsRankedSloExemplars)
{
    // 1P/1T at 20 rps is far past saturation: deep queues, heavy
    // slowdowns, guaranteed SLO breaches to exemplify.
    const auto trace = convTrace(20.0, 10);
    SimConfig config;
    config.telemetry.spanTracking = true;
    config.telemetry.exemplarK = 3;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1), config);
    cluster.run(trace);

    const auto& ex = cluster.spanTracker()->exemplars();
    ASSERT_FALSE(ex.empty());
    ASSERT_LE(ex.size(), 3u);
    for (std::size_t i = 1; i < ex.size(); ++i)
        EXPECT_GE(ex[i - 1].slowdown, ex[i].slowdown);
    // Saturated queues push the worst offender well past 1x.
    EXPECT_GT(ex[0].slowdown, 1.0);
    // Each exemplar retains a full, closed, causally ordered timeline.
    for (const auto& e : ex) {
        ASSERT_FALSE(e.timeline.segments.empty());
        EXPECT_NE(e.timeline.doneUs, telemetry::kSpanOpen);
        EXPECT_EQ(e.timeline.segments.front().startUs,
                  e.timeline.arrivalUs);
        for (std::size_t i = 0; i < e.timeline.segments.size(); ++i) {
            const auto& seg = e.timeline.segments[i];
            EXPECT_NE(seg.endUs, telemetry::kSpanOpen);
            EXPECT_GE(seg.endUs, seg.startUs);
            if (i + 1 < e.timeline.segments.size())
                EXPECT_EQ(e.timeline.segments[i + 1].startUs, seg.endUs);
        }
        EXPECT_EQ(e.timeline.segments.back().endUs, e.timeline.doneUs);
    }
}

TEST(AttributionIntegrationTest, FlowEventsLinkPrefillToDecode)
{
    const auto trace = convTrace(6.0, 10);
    SimConfig config;
    config.telemetry.traceEnabled = true;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);
    ASSERT_GT(report.transfers.transfers, 0u);

    const auto* rec = cluster.traceRecorder();
    ASSERT_NE(rec, nullptr);
    // Pending handoff marks live in request rows, and every row
    // retired; the s/f balance below proves each mark was taken.
    EXPECT_EQ(cluster.requestPool().liveCount(), 0u);

    const std::string json = rec->toJson();
    test_json::Checker checker(json);
    EXPECT_TRUE(checker.valid())
        << "parse error near " << json.substr(checker.errorAt(), 40);

    auto count = [&](const char* needle) {
        std::size_t n = 0, pos = 0;
        const std::string s(needle);
        while ((pos = json.find(s, pos)) != std::string::npos) {
            ++n;
            pos += s.size();
        }
        return n;
    };
    // Every KV hand-off draws a flow arrow: one 's' on the prompt
    // side, one binding-enclosing 'f' on the decode side.
    const std::size_t starts = count("\"ph\":\"s\"");
    const std::size_t ends = count("\"ph\":\"f\"");
    EXPECT_GE(starts, report.transfers.transfers);
    EXPECT_EQ(starts, ends);
    EXPECT_EQ(count("\"bp\":\"e\""), ends);
}

TEST(AttributionIntegrationTest, SketchReportsByteIdenticalAcrossJobs)
{
    // The sweep determinism contract extended to sketch mode: the
    // per-config report bytes must not depend on the worker count.
    std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15, 16};
    auto run_all = [&](int jobs) {
        sim::RunPool pool(jobs);
        return pool.map(seeds, [](std::uint64_t seed) {
            workload::TraceGenerator gen(workload::conversation(), seed);
            SimConfig config;
            config.sketchLatencies = true;
            config.telemetry.spanTracking = true;
            Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1),
                            config);
            return core::reportToJson(
                cluster.run(gen.generate(5.0, sim::secondsToUs(8.0))));
        });
    };
    const auto serial = run_all(1);
    const auto parallel = run_all(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "seed " << seeds[i];
    // Sketch-mode reports still carry the full latency sections.
    EXPECT_NE(serial[0].find("\"ttft_ms\""), std::string::npos);
    EXPECT_NE(serial[0].find("\"max_tbt_ms\""), std::string::npos);
}

TEST(AttributionIntegrationTest, FaultStormScenariosKeepSpanBalance)
{
    // Fuzzed scenarios with crashes, link faults, brownouts, and
    // retries, spans force-enabled: the span-balance invariant and
    // the tracker's structural self-check hold at every quiescent
    // point and the final check proves no timeline leaked.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        testing::Scenario s = testing::makeScenario(seed);
        s.spanOverride = 1;
        ASSERT_TRUE(s.spansEnabled());
        const auto outcome = testing::runScenario(s);
        EXPECT_FALSE(outcome.violated)
            << "seed " << seed << ": " << outcome.invariant << " - "
            << outcome.detail;
    }
}

TEST(AttributionIntegrationTest, SpanOverrideOffDisablesTracking)
{
    testing::Scenario s = testing::makeScenario(3);
    s.traceEnabled = true;
    s.spanOverride = -1;
    EXPECT_FALSE(s.spansEnabled());
    const auto outcome = testing::runScenario(s);
    EXPECT_FALSE(outcome.violated) << outcome.detail;
    EXPECT_EQ(outcome.outcomeJson.find("\"breakdown\""),
              std::string::npos);
}

TEST(AttributionIntegrationTest, ViolationCapturesFlightRecorder)
{
    // Seed a KV leak so an invariant fires mid-run; the outcome must
    // carry the tracker's flight-recorder dump for the postmortem.
    testing::Scenario s = testing::makeScenario(5);
    s.spanOverride = 1;
    s.bug.kind = testing::BugKind::kOrphanKvBlock;
    s.bug.machineId = 0;
    s.bug.atUs = sim::msToUs(300.0);
    const auto outcome = testing::runScenario(s);
    ASSERT_TRUE(outcome.violated);
    ASSERT_FALSE(outcome.flightRecorderJson.empty());
    test_json::Checker checker(outcome.flightRecorderJson);
    EXPECT_TRUE(checker.valid())
        << "parse error near "
        << outcome.flightRecorderJson.substr(checker.errorAt(), 40);
    EXPECT_NE(outcome.flightRecorderJson.find("\"recent\":["),
              std::string::npos);
    EXPECT_NE(outcome.flightRecorderJson.find("\"live\":["),
              std::string::npos);
}

TEST(AttributionIntegrationTest, FlightRecorderListsLiveTimelinesInIdOrder)
{
    // The dump's live section follows request ids, not pool slots: a
    // lower id in a later slot still comes first, and rows without
    // an open timeline are left out.
    telemetry::SpanTracker spans;
    engine::RequestPool pool(4);
    engine::LiveRequest* first = pool.acquire();
    engine::LiveRequest* untracked = pool.acquire();
    engine::LiveRequest* second = pool.acquire();
    ASSERT_LT(first->poolSlot, second->poolSlot);
    first->spec.id = 20;
    untracked->spec.id = 5;
    second->spec.id = 10;
    spans.transition(first->spans, telemetry::SpanPhase::kQueue, 100);
    spans.transition(second->spans, telemetry::SpanPhase::kPrefill, 200);

    const std::string json = testing::flightRecorderJson(spans, pool);
    EXPECT_EQ(json,
              "{\"recent\":[],\"live\":["
              "{\"request\":10,\"arrival_us\":200,\"done_us\":-1,"
              "\"restarts\":0,\"spans\":[{\"phase\":\"prefill\","
              "\"start_us\":200,\"end_us\":-1}]},"
              "{\"request\":20,\"arrival_us\":100,\"done_us\":-1,"
              "\"restarts\":0,\"spans\":[{\"phase\":\"queue\","
              "\"start_us\":100,\"end_us\":-1}]}]}");
}

TEST(AttributionIntegrationTest, NoSpanTrackerUnlessEnabled)
{
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    EXPECT_EQ(cluster.spanTracker(), nullptr);
    const RunReport report = cluster.run(convTrace(2.0, 5));
    EXPECT_FALSE(report.breakdown.enabled);
}

}  // namespace
}  // namespace splitwise
