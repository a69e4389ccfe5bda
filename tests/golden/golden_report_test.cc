/**
 * @file
 * Golden-report regression tests: small, fast variants of the
 * bench_fig12 and bench_table5 configurations (plus a prefix-cache
 * and a latency-attribution cell) whose full serialized run reports
 * are checked in under tests/golden/data/. Any change to
 * scheduling, pricing, or accounting that moves a number shows up as
 * a diff here before it can silently skew the paper figures.
 *
 * After an intentional behavior change, refresh the goldens with
 * tools/update_goldens.sh (runs this binary with
 * SPLITWISE_UPDATE_GOLDENS=1) and commit the diff.
 *
 * Numbers are compared with a tight relative tolerance rather than
 * byte equality so the goldens survive compiler FP-contraction
 * differences; structure and strings must match exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/designs.h"
#include "core/fault_plan.h"
#include "core/json.h"
#include "core/report_io.h"
#include "model/llm_config.h"
#include "sched/policy.h"
#include "workload/multi_turn.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

/** Fig. 12 in miniature: a 2p/2t Splitwise-HH cluster under the
 *  conversation workload at moderate load. */
std::string
fig12SmallReport()
{
    workload::TraceGenerator gen(workload::conversation(), 42);
    const auto trace = gen.generate(5.0, sim::secondsToUs(10));
    SimConfig config;
    config.kvRetry.maxRetries = 2;
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2), config);
    return reportToJson(cluster.run(trace));
}

/** Table 5 in miniature: an H100 baseline under the coding
 *  workload, with the SLO section included. */
std::string
table5SmallReport()
{
    workload::TraceGenerator gen(workload::coding(), 7);
    const auto trace = gen.generate(3.0, sim::secondsToUs(10));
    Cluster cluster(model::llama2_70b(), baselineH100(2));
    const RunReport report = cluster.run(trace);
    const SloChecker checker(model::llama2_70b());
    const SloReport slo = checker.evaluate(report.requests, SloSet{});
    return reportToJson(report, &slo);
}

/** The bench_ablation_prefix --short 5P+5T cell in miniature:
 *  multi-turn sessions under the prefix-cache policy, pinning the
 *  hit/miss/evict accounting, the per-pool load shift, and the TTFT
 *  tail of KV reuse. */
std::string
prefixSmallReport()
{
    workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
    mt.thinkTimeMeanS = 2.0;
    workload::MultiTurnTraceGenerator gen(mt, 42);
    const auto trace = gen.generate(4.0, sim::secondsToUs(8));
    SimConfig config;
    config.policy.kind = sched::PolicyKind::kPrefixCache;
    config.policy.maxContextTokens = mt.maxContextTokens;
    Cluster cluster(model::llama2_70b(), splitwiseHH(5, 5), config);
    return reportToJson(cluster.run(trace));
}

/** Latency attribution in miniature: Splitwise-HH 2P+2T with span
 *  tracking and worst-3 exemplars, through a prompt-machine crash
 *  that rejoins and a token-machine NIC fault the KV retries ride
 *  out, so the fault phases (restart_penalty, kv_backoff) are pinned
 *  beside queue, prefill, kv_transfer and decode. */
std::string
spansSmallReport()
{
    workload::TraceGenerator gen(workload::conversation(), 42);
    const auto trace = gen.generate(5.0, sim::secondsToUs(10));
    SimConfig config;
    config.telemetry.spanTracking = true;
    config.telemetry.exemplarK = 3;
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2), config);
    FaultPlan plan;
    plan.add({FaultKind::kCrash, 0, sim::secondsToUs(3.0),
              sim::secondsToUs(1.0)});
    plan.add({FaultKind::kLinkFault, 2, sim::secondsToUs(5.0),
              sim::secondsToUs(1.0)});
    FaultInjector(cluster).apply(plan);
    const RunReport report = cluster.run(trace);
    return "{\"report\":" + reportToJson(report) + ",\"attribution\":" +
           cluster.spanTracker()->attributionJson() + "}";
}

std::string
goldenPath(const std::string& file)
{
    return std::string(SPLITWISE_GOLDEN_DIR) + "/" + file;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        ADD_FAILURE() << "missing golden " << path
                      << " - run tools/update_goldens.sh";
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Structural JSON comparison: exact for types, keys, strings, and
 *  booleans; relative 1e-9 for numbers. */
void
expectJsonNear(const JsonValue& golden, const JsonValue& actual,
               const std::string& where)
{
    ASSERT_EQ(golden.type(), actual.type()) << where;
    switch (golden.type()) {
      case JsonValue::Type::kNumber: {
        const double g = golden.asNumber();
        const double a = actual.asNumber();
        const double tol = 1e-9 * std::max(1.0, std::fabs(g));
        EXPECT_NEAR(a, g, tol) << where;
        break;
      }
      case JsonValue::Type::kString:
        EXPECT_EQ(golden.asString(), actual.asString()) << where;
        break;
      case JsonValue::Type::kBool:
        EXPECT_EQ(golden.asBool(), actual.asBool()) << where;
        break;
      case JsonValue::Type::kArray: {
        ASSERT_EQ(golden.size(), actual.size()) << where;
        for (std::size_t i = 0; i < golden.size(); ++i) {
            expectJsonNear(golden.at(i), actual.at(i),
                           where + "[" + std::to_string(i) + "]");
        }
        break;
      }
      case JsonValue::Type::kObject: {
        ASSERT_EQ(golden.members().size(), actual.members().size())
            << where;
        for (const auto& [key, value] : golden.members()) {
            ASSERT_TRUE(actual.has(key)) << where << "." << key;
            expectJsonNear(value, actual.at(key), where + "." + key);
        }
        break;
      }
      case JsonValue::Type::kNull:
        break;
    }
}

void
checkGolden(const std::string& file, const std::string& actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("SPLITWISE_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual << '\n';
        return;
    }
    const std::string golden = readFile(path);
    if (golden.empty())
        return;  // readFile already failed the test.
    expectJsonNear(JsonValue::parse(golden), JsonValue::parse(actual),
                   file);
}

TEST(GoldenReportTest, Fig12SmallMatchesGolden)
{
    checkGolden("fig12_small.json", fig12SmallReport());
}

TEST(GoldenReportTest, Table5SmallMatchesGolden)
{
    checkGolden("table5_small.json", table5SmallReport());
}

TEST(GoldenReportTest, PrefixSmallMatchesGolden)
{
    const std::string actual = prefixSmallReport();
    // The prefix policy must actually engage in the pinned
    // configuration; a silent fall-back to the default path would
    // otherwise golden an empty cache.
    const JsonValue doc = JsonValue::parse(actual);
    ASSERT_TRUE(doc.has("prefix_cache"));
    ASSERT_GT(doc.at("prefix_cache").at("hits").asInt(), 0);
    checkGolden("prefix_small.json", actual);
}

TEST(GoldenReportTest, SpansSmallMatchesGolden)
{
    const std::string actual = spansSmallReport();
    // Every phase the faults are there to provoke must show up, or
    // the golden would silently pin a fault-free run.
    const JsonValue phases =
        JsonValue::parse(actual).at("report").at("breakdown").at("phases");
    for (const char* phase : {"queue", "prefill", "kv_transfer", "kv_backoff",
                              "decode", "restart_penalty"}) {
        ASSERT_GT(phases.at(phase).at("requests").asInt(), 0) << phase;
    }
    checkGolden("spans_small.json", actual);
}

/** The golden inputs themselves are deterministic - a regression
 *  here means flaky goldens, not a behavior change. */
TEST(GoldenReportTest, GoldenConfigurationsAreDeterministic)
{
    EXPECT_EQ(fig12SmallReport(), fig12SmallReport());
    EXPECT_EQ(table5SmallReport(), table5SmallReport());
    EXPECT_EQ(prefixSmallReport(), prefixSmallReport());
    EXPECT_EQ(spansSmallReport(), spansSmallReport());
}

}  // namespace
}  // namespace splitwise::core
