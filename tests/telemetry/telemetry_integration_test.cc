#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/report_io.h"
#include "json_checker.h"
#include "model/llm_config.h"
#include "telemetry/trace_recorder.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

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

TEST(TelemetryIntegrationTest, TraceExportIsWellFormedPerfettoJson)
{
    const auto trace = convTrace(8.0, 15);
    SimConfig config;
    config.telemetry.traceEnabled = true;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), trace.size());

    const auto* rec = cluster.traceRecorder();
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->eventCount(), 0u);
    // Every span begun during the run was ended or closed.
    EXPECT_EQ(rec->openSpans(), 0u);

    const std::string json = rec->toJson();
    test_json::Checker checker(json);
    EXPECT_TRUE(checker.valid())
        << "JSON parse error near offset " << checker.errorAt() << ": "
        << json.substr(checker.errorAt(), 40);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    // All three track processes show up in a real run.
    for (const char* name : {"\"requests\"", "\"machines\"", "\"cluster\""})
        EXPECT_NE(json.find(name), std::string::npos) << name;
}

TEST(TelemetryIntegrationTest, ExportedTimestampsAreMonotonicPerTrack)
{
    const auto trace = convTrace(8.0, 10);
    SimConfig config;
    config.telemetry.traceEnabled = true;
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    cluster.run(trace);

    // Walk the exported array in order and track the last ts seen on
    // each (pid, tid). The exporter promises a stable sort by ts, so
    // within any track timestamps must never go backwards.
    const std::string json = cluster.traceRecorder()->toJson();
    std::map<std::pair<long, long>, double> last_ts;
    std::size_t events = 0;
    std::size_t pos = 0;
    auto field = [&](const char* key, std::size_t from, double& out) {
        const std::string needle = std::string("\"") + key + "\":";
        const auto at = json.find(needle, from);
        if (at == std::string::npos)
            return false;
        out = std::stod(json.substr(at + needle.size()));
        return true;
    };
    while ((pos = json.find("{\"ph\":\"", pos)) != std::string::npos) {
        if (json[pos + 7] == 'M') {  // metadata events carry no ts
            ++pos;
            continue;
        }
        double pid = 0, tid = 0, ts = 0;
        ASSERT_TRUE(field("pid", pos, pid));
        ASSERT_TRUE(field("tid", pos, tid));
        ASSERT_TRUE(field("ts", pos, ts));
        const auto key = std::make_pair(static_cast<long>(pid),
                                        static_cast<long>(tid));
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second) << "track pid=" << pid
                                      << " tid=" << tid;
        }
        last_ts[key] = ts;
        ++events;
        ++pos;
    }
    EXPECT_EQ(events, cluster.traceRecorder()->eventCount());
    EXPECT_GT(last_ts.size(), 4u);  // several request + machine tracks
}

TEST(TelemetryIntegrationTest, SamplerFollowsCrashAndRejoin)
{
    const auto trace = convTrace(8.0, 20);
    SimConfig config;
    config.telemetry.sampleIntervalUs = sim::secondsToUs(1.0);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    cluster.scheduleFailure(3, sim::secondsToUs(5),
                            sim::secondsToUs(7));

    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.rejoins, 1u);
    const auto& series = report.timeseries;
    ASSERT_FALSE(series.empty());

    // On-event samples at the fail (t=5s) and rejoin (t=12s)
    // instants land between the 1 s grid rows.
    const auto t = series.column("t_s");
    auto has_row_at = [&](double when) {
        return std::any_of(t.begin(), t.end(), [&](double v) {
            return std::abs(v - when) < 1e-9;
        });
    };
    EXPECT_TRUE(has_row_at(5.0));
    EXPECT_TRUE(has_row_at(12.0));

    // The token-pool machine count dips while the machine is down.
    const auto pool = series.column("token_pool_machines");
    const auto lo = *std::min_element(pool.begin(), pool.end());
    const auto hi = *std::max_element(pool.begin(), pool.end());
    EXPECT_EQ(hi, 2.0);
    EXPECT_EQ(lo, 1.0);

    // The rejoin made it into the counters column too.
    EXPECT_EQ(series.column("rejoins").back(), 1.0);
}

TEST(TelemetryIntegrationTest, FinalTokenSampleMatchesPoolAggregates)
{
    const auto trace = convTrace(10.0, 20);
    SimConfig config;
    config.telemetry.sampleIntervalUs = sim::secondsToUs(1.0);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    const RunReport report = cluster.run(trace);

    const auto sampled = report.timeseries.column("tokens_generated");
    ASSERT_FALSE(sampled.empty());
    const double aggregate =
        static_cast<double>(report.promptPool.tokensGenerated +
                            report.tokenPool.tokensGenerated);
    ASSERT_GT(aggregate, 0.0);
    // finish() emits a final end-of-run row, so the last cumulative
    // sample matches the aggregate exactly - well within the 1%
    // acceptance bound.
    EXPECT_NEAR(sampled.back() / aggregate, 1.0, 0.01);

    const auto prompts =
        report.timeseries.column("prompt_tokens_processed");
    const double prompt_aggregate =
        static_cast<double>(report.promptPool.promptTokensProcessed +
                            report.tokenPool.promptTokensProcessed);
    EXPECT_NEAR(prompts.back() / prompt_aggregate, 1.0, 0.01);
}

TEST(TelemetryIntegrationTest, FaultCountersFlowThroughRegistry)
{
    const auto trace = convTrace(8.0, 20);
    SimConfig config;
    config.telemetry.sampleIntervalUs = sim::secondsToUs(1.0);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2), config);
    cluster.scheduleFailure(3, sim::secondsToUs(5), sim::secondsToUs(7));
    const RunReport report = cluster.run(trace);

    // The legacy report counters are now read out of the registry;
    // the sampled columns and the scalar report must agree.
    const auto& ts = report.timeseries;
    EXPECT_EQ(ts.column("restarts").back(),
              static_cast<double>(report.restarts));
    EXPECT_EQ(ts.column("rejoins").back(),
              static_cast<double>(report.rejoins));
    EXPECT_EQ(ts.column("rejected").back(),
              static_cast<double>(report.rejected));
    EXPECT_EQ(ts.column("kv_transfers").back(),
              static_cast<double>(report.transfers.transfers));
    EXPECT_GT(report.restarts, 0u);
}

TEST(TelemetryIntegrationTest, TimeseriesAppearsInReportJson)
{
    const auto trace = convTrace(5.0, 10);
    SimConfig config;
    config.telemetry.sampleIntervalUs = sim::secondsToUs(2.0);
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1), config);
    const RunReport report = cluster.run(trace);

    const std::string json = core::reportToJson(report);
    test_json::Checker checker(json);
    EXPECT_TRUE(checker.valid())
        << "parse error near " << json.substr(checker.errorAt(), 40);
    EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
    EXPECT_NE(json.find("\"tokens_generated\""), std::string::npos);
}

TEST(TelemetryIntegrationTest, TelemetryOffLeavesTheReportUntouched)
{
    const auto trace = convTrace(8.0, 15);
    auto run_once = [&](bool telemetry) {
        SimConfig config;
        if (telemetry) {
            config.telemetry.traceEnabled = true;
            config.telemetry.sampleIntervalUs = sim::secondsToUs(1.0);
        }
        Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2),
                        config);
        cluster.scheduleFailure(3, sim::secondsToUs(4),
                                sim::secondsToUs(5));
        RunReport report = cluster.run(trace);
        // Sampling adds the timeseries block to the JSON by design;
        // strip it so the comparison covers everything else.
        report.timeseries = {};
        return core::reportToJson(report);
    };
    // Observability must not perturb the simulation: the serialized
    // report is bit-identical with telemetry on and off.
    EXPECT_EQ(run_once(false), run_once(true));
}

TEST(TelemetryIntegrationTest, NoTraceRecorderUnlessEnabled)
{
    Cluster cluster(model::llama2_70b(), core::splitwiseHH(1, 1));
    EXPECT_EQ(cluster.traceRecorder(), nullptr);
    const RunReport report = cluster.run(convTrace(2.0, 5));
    EXPECT_TRUE(report.timeseries.empty());
}

}  // namespace
}  // namespace splitwise
