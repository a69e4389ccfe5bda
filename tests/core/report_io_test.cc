#include "core/report_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/designs.h"
#include "core/fault_plan.h"
#include "core/json.h"
#include "model/llm_config.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

RunReport
smallRun()
{
    workload::TraceGenerator gen(workload::conversation(), 8);
    const auto trace = gen.generate(3.0, sim::secondsToUs(10));
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 1));
    return cluster.run(trace);
}

TEST(ReportIoTest, JsonContainsAllSections)
{
    const RunReport report = smallRun();
    const std::string json = reportToJson(report);
    for (const char* key :
         {"\"design\"", "\"requests\"", "\"pools\"", "\"transfers\"",
          "\"scheduler\"", "\"ttft_ms\"", "\"tbt_ms\"", "\"e2e_ms\"",
          "\"prompt\"", "\"token\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // No SLO section unless one is supplied.
    EXPECT_EQ(json.find("\"slo\""), std::string::npos);
}

TEST(ReportIoTest, JsonValuesMatchReport)
{
    const RunReport report = smallRun();
    const std::string json = reportToJson(report);
    EXPECT_NE(json.find("\"completed\":" +
                        std::to_string(report.requests.completed())),
              std::string::npos);
    EXPECT_NE(json.find("\"count\":" +
                        std::to_string(report.transfers.transfers)),
              std::string::npos);
    EXPECT_NE(json.find("\"machines\":2"), std::string::npos);
}

TEST(ReportIoTest, SloSectionIncluded)
{
    const RunReport report = smallRun();
    const SloChecker checker(model::llama2_70b());
    const SloReport slo = checker.evaluate(report.requests, SloSet{});
    const std::string json = reportToJson(report, &slo);
    EXPECT_NE(json.find("\"slo\""), std::string::npos);
    EXPECT_NE(json.find("\"pass\":"), std::string::npos);
    EXPECT_NE(json.find("\"tbt_slowdown\""), std::string::npos);
}

TEST(ReportIoTest, BalancedBracesAndQuotes)
{
    const RunReport report = smallRun();
    const SloChecker checker(model::llama2_70b());
    const SloReport slo = checker.evaluate(report.requests, SloSet{});
    const std::string json = reportToJson(report, &slo);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(ReportIoTest, WritesFile)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "splitwise_report_test.json";
    const RunReport report = smallRun();
    writeReportJson(report, path.string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents.front(), '{');
    std::filesystem::remove(path);
}

TEST(ReportIoTest, WriteToBadPathThrows)
{
    const RunReport report = smallRun();
    EXPECT_THROW(writeReportJson(report, "/nonexistent/dir/report.json"),
                 std::runtime_error);
}

/** A report counter read back from its JSON section. */
std::uint64_t
counter(const JsonValue& section, const char* key)
{
    return static_cast<std::uint64_t>(section.at(key).asInt());
}

TEST(ReportJsonTest, RoundTripPreservesScalars)
{
    const RunReport report = smallRun();
    const JsonValue doc = JsonValue::parse(reportToJson(report));
    const JsonValue& requests = doc.at("requests");
    EXPECT_EQ(doc.at("design").at("machines").asInt(), 2);
    EXPECT_EQ(counter(requests, "submitted"), report.submitted);
    EXPECT_EQ(counter(requests, "completed"), report.requests.completed());
    EXPECT_NEAR(requests.at("throughput_rps").asNumber(),
                report.throughputRps(), 1e-5 * report.throughputRps());
    EXPECT_EQ(counter(doc.at("transfers"), "count"),
              report.transfers.transfers);
    EXPECT_EQ(counter(doc.at("scheduler"), "preemptions"),
              report.preemptions);
    const JsonValue& pools = doc.at("pools");
    EXPECT_EQ(pools.at("prompt").at("tokens_generated").asInt(),
              report.promptPool.tokensGenerated);
    EXPECT_EQ(pools.at("token").at("tokens_generated").asInt(),
              report.tokenPool.tokensGenerated);
    EXPECT_GT(requests.at("ttft_ms").at("p50").asNumber(), 0.0);
    EXPECT_FALSE(doc.has("slo"));
}

TEST(ReportJsonTest, SloSectionRoundTrips)
{
    const RunReport report = smallRun();
    const SloChecker checker(model::llama2_70b());
    const SloReport slo = checker.evaluate(report.requests, SloSet{});
    const JsonValue doc = JsonValue::parse(reportToJson(report, &slo));
    ASSERT_TRUE(doc.has("slo"));
    EXPECT_EQ(doc.at("slo").at("pass").asBool(), slo.pass);
}

/** A run with crashes and admission control: the fault counters and
 *  rejected count must survive the report -> JSON -> parse trip. */
TEST(ReportJsonTest, FaultCountersAndRejectedRoundTrip)
{
    workload::TraceGenerator gen(workload::conversation(), 11);
    const auto trace = gen.generate(12.0, sim::secondsToUs(8));
    SimConfig config;
    config.cls.shedQueuedTokensBound = 4000;
    config.kvRetry.maxRetries = 2;
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2), config);
    FaultPlan plan;
    plan.add({FaultKind::kCrash, 1, sim::secondsToUs(2),
              sim::secondsToUs(2), 1.0});
    plan.add({FaultKind::kLinkFault, 2, sim::secondsToUs(1),
              sim::msToUs(400.0), 1.0});
    FaultInjector(cluster).apply(plan);
    const RunReport report = cluster.run(trace);
    const JsonValue doc = JsonValue::parse(reportToJson(report));
    const JsonValue& scheduler = doc.at("scheduler");
    const JsonValue& transfers = doc.at("transfers");
    EXPECT_EQ(counter(scheduler, "restarts"), report.restarts);
    EXPECT_EQ(counter(scheduler, "checkpoint_restores"),
              report.checkpointRestores);
    EXPECT_EQ(counter(scheduler, "rejected"), report.rejected);
    EXPECT_EQ(counter(scheduler, "rejoins"), report.rejoins);
    EXPECT_EQ(counter(transfers, "faults"), report.transfers.transferFaults);
    EXPECT_EQ(counter(transfers, "retries"),
              report.transfers.transferRetries);
    EXPECT_EQ(counter(transfers, "timeouts"),
              report.transfers.transferTimeouts);
    EXPECT_EQ(counter(transfers, "aborts"), report.transfers.transferAborts);
    EXPECT_GT(counter(scheduler, "rejoins"), 0u);
}

TEST(ReportJsonTest, MalformedJsonIsFatal)
{
    EXPECT_THROW(JsonValue::parse("not json"), std::runtime_error);
    EXPECT_THROW(JsonValue::parse("{\"design\":{}}").at("requests"),
                 std::runtime_error);
}

}  // namespace
}  // namespace splitwise::core
