#include "metrics/request_metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"

namespace splitwise::metrics {
namespace {

RequestResult
makeResult(double ttft, double tbt, double e2e, std::int64_t out = 10,
           sim::TimeUs arrival = 0)
{
    RequestResult r;
    r.arrival = arrival;
    r.promptTokens = 100;
    r.outputTokens = out;
    r.ttftMs = ttft;
    r.tbtMs = tbt;
    r.maxTbtMs = tbt * 2;
    r.e2eMs = e2e;
    return r;
}

/** Linear-interpolation percentile of sorted @p v (0 when empty). */
double
referencePercentile(const std::vector<double>& v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/**
 * All six fields of @p stats against a sort of one field of the
 * records; @p multi_token_only drops single-token requests (TBT).
 */
void
expectMatchesRecords(const RequestMetrics::LatencyStats& stats,
                     const std::vector<RequestResult>& records,
                     double RequestResult::*field, bool multi_token_only,
                     const char* name)
{
    SCOPED_TRACE(name);
    std::vector<double> v;
    double sum = 0.0;
    for (const RequestResult& r : records) {
        if (multi_token_only && r.outputTokens <= 1)
            continue;
        v.push_back(r.*field);
        sum += r.*field;
    }
    std::sort(v.begin(), v.end());
    EXPECT_EQ(stats.count, v.size());
    EXPECT_DOUBLE_EQ(stats.mean,
                     v.empty() ? 0.0 : sum / static_cast<double>(v.size()));
    EXPECT_DOUBLE_EQ(stats.p50, referencePercentile(v, 50.0));
    EXPECT_DOUBLE_EQ(stats.p90, referencePercentile(v, 90.0));
    EXPECT_DOUBLE_EQ(stats.p99, referencePercentile(v, 99.0));
    EXPECT_DOUBLE_EQ(stats.max, v.empty() ? 0.0 : v.back());
}

/** The four distributions of @p m against its own records. */
void
expectStatsMatchRecords(const RequestMetrics& m)
{
    const auto& records = m.results();
    expectMatchesRecords(m.ttftStats(), records, &RequestResult::ttftMs,
                         false, "ttft");
    expectMatchesRecords(m.tbtStats(), records, &RequestResult::tbtMs, true,
                         "tbt");
    expectMatchesRecords(m.maxTbtStats(), records,
                         &RequestResult::maxTbtMs, false, "max_tbt");
    expectMatchesRecords(m.e2eStats(), records, &RequestResult::e2eMs,
                         false, "e2e");
}

TEST(RequestMetricsTest, EmptyState)
{
    RequestMetrics m;
    EXPECT_EQ(m.completed(), 0u);
    EXPECT_DOUBLE_EQ(m.throughputRps(), 0.0);
    EXPECT_DOUBLE_EQ(m.tokenThroughput(), 0.0);
    expectStatsMatchRecords(m);
}

TEST(RequestMetricsTest, AggregatesLatencies)
{
    RequestMetrics m;
    m.add(makeResult(10, 30, 300));
    m.add(makeResult(20, 40, 400));
    EXPECT_EQ(m.completed(), 2u);
    EXPECT_DOUBLE_EQ(m.ttftStats().mean, 15.0);
    EXPECT_DOUBLE_EQ(m.tbtStats().mean, 35.0);
    EXPECT_DOUBLE_EQ(m.e2eStats().mean, 350.0);
    EXPECT_DOUBLE_EQ(m.maxTbtStats().mean, 70.0);
    expectStatsMatchRecords(m);
}

TEST(RequestMetricsTest, SingleTokenRequestsExcludedFromTbt)
{
    RequestMetrics m;
    m.add(makeResult(10, 0, 10, /*out=*/1));
    m.add(makeResult(10, 50, 300, /*out=*/5));
    EXPECT_EQ(m.tbtStats().count, 1u);
    EXPECT_DOUBLE_EQ(m.tbtStats().mean, 50.0);
    EXPECT_EQ(m.ttftStats().count, 2u);
    expectStatsMatchRecords(m);
}

TEST(RequestMetricsTest, TokenTotals)
{
    RequestMetrics m;
    m.add(makeResult(1, 2, 3, 7));
    m.add(makeResult(1, 2, 3, 13));
    EXPECT_EQ(m.totalOutputTokens(), 20);
    EXPECT_EQ(m.totalPromptTokens(), 200);
}

TEST(RequestMetricsTest, ThroughputOverSpan)
{
    RequestMetrics m;
    // Two requests: first arrives at 0, last completes at 2s.
    m.add(makeResult(10, 10, 1000, 10, 0));
    m.add(makeResult(10, 10, 1000, 10, sim::secondsToUs(1)));
    EXPECT_NEAR(m.throughputRps(), 1.0, 1e-9);
    EXPECT_NEAR(m.tokenThroughput(), 10.0, 1e-9);
}

TEST(RequestMetricsTest, MergePreservesCounts)
{
    RequestMetrics a;
    a.add(makeResult(10, 20, 30));
    RequestMetrics b;
    b.add(makeResult(40, 50, 60));
    a.merge(b);
    EXPECT_EQ(a.completed(), 2u);
    EXPECT_DOUBLE_EQ(a.e2eStats().max, 60.0);
    expectStatsMatchRecords(a);

    // Larger random collectors, a fifth of them single-token: the
    // stats follow the records before and after a merge, and read
    // back the same on a second query.
    sim::Rng rng(2024);
    RequestMetrics c;
    RequestMetrics d;
    for (int i = 0; i < 300; ++i) {
        const double ttft = rng.uniform(1.0, 500.0);
        const double tbt = rng.uniform(1.0, 80.0);
        const double e2e = rng.uniform(100.0, 9000.0);
        const std::int64_t out = rng.uniformInt(0, 4) == 0 ? 1 : 20;
        RequestResult r = makeResult(ttft, tbt, e2e, out);
        r.maxTbtMs = tbt * rng.uniform(1.0, 4.0);
        (i % 3 == 0 ? d : c).add(r);
    }
    expectStatsMatchRecords(c);
    expectStatsMatchRecords(d);
    c.merge(d);
    EXPECT_EQ(c.results().size(), 300u);
    expectStatsMatchRecords(c);
    expectStatsMatchRecords(c);
}

TEST(RequestMetricsTest, ResultsKeptInCompletionOrder)
{
    RequestMetrics m;
    auto r1 = makeResult(1, 1, 1);
    r1.requestId = 7;
    auto r2 = makeResult(2, 2, 2);
    r2.requestId = 3;
    m.add(r1);
    m.add(r2);
    ASSERT_EQ(m.results().size(), 2u);
    EXPECT_EQ(m.results()[0].requestId, 7u);
    EXPECT_EQ(m.results()[1].requestId, 3u);
}

}  // namespace
}  // namespace splitwise::metrics
