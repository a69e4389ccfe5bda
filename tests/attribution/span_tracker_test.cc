#include "telemetry/span_tracker.h"

#include <gtest/gtest.h>

#include <string>

namespace splitwise::telemetry {
namespace {

TEST(SpanTrackerTest, LifecycleAttributionSumsToE2e)
{
    SpanTracker t;
    const std::uint64_t id = 7;
    t.transition(id, SpanPhase::kQueue, 0);
    t.transition(id, SpanPhase::kPrefill, 10000);
    t.transition(id, SpanPhase::kKvTransfer, 30000);
    t.transition(id, SpanPhase::kDecode, 34000);
    EXPECT_EQ(t.liveCount(), 1u);
    EXPECT_EQ(t.integrityError(), "");
    t.complete(id, 50000, 1.0);
    EXPECT_EQ(t.liveCount(), 0u);
    EXPECT_EQ(t.completedCount(), 1u);

    const LatencyBreakdown bd = t.breakdown();
    EXPECT_TRUE(bd.enabled);
    EXPECT_EQ(bd.requests, 1u);
    EXPECT_DOUBLE_EQ(bd.e2eTotalMs, 50.0);
    EXPECT_DOUBLE_EQ(bd.attributedTotalMs, 50.0);
    double sum = 0.0;
    for (const auto& ps : bd.phases)
        sum += ps.totalMs;
    EXPECT_DOUBLE_EQ(sum, bd.e2eTotalMs);

    auto total = [&](SpanPhase p) {
        return bd.phases[static_cast<std::size_t>(p)].totalMs;
    };
    EXPECT_DOUBLE_EQ(total(SpanPhase::kQueue), 10.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kPrefill), 20.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kKvTransfer), 4.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kDecode), 16.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kRestartPenalty), 0.0);
}

TEST(SpanTrackerTest, RepeatOfOpenPhaseIsANoOp)
{
    SpanTracker t;
    t.transition(1, SpanPhase::kQueue, 0);
    t.transition(1, SpanPhase::kQueue, 500);
    const SpanTimeline* tl = t.liveTimeline(1);
    ASSERT_NE(tl, nullptr);
    ASSERT_EQ(tl->segments.size(), 1u);
    EXPECT_EQ(tl->segments[0].startUs, 0);
    EXPECT_EQ(tl->segments[0].endUs, kSpanOpen);
}

TEST(SpanTrackerTest, BrownoutSubstitutesForQueueWhileEngaged)
{
    SpanTracker t;
    t.setBrownoutLevel(2);
    t.transition(1, SpanPhase::kQueue, 0);
    const SpanTimeline* tl = t.liveTimeline(1);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->segments[0].phase, SpanPhase::kBrownoutStall);

    // Back to normal: a fresh request queues as plain kQueue.
    t.setBrownoutLevel(0);
    t.transition(2, SpanPhase::kQueue, 100);
    EXPECT_EQ(t.liveTimeline(2)->segments[0].phase, SpanPhase::kQueue);

    // Non-queue phases are never substituted.
    t.setBrownoutLevel(1);
    t.transition(3, SpanPhase::kPrefill, 200);
    EXPECT_EQ(t.liveTimeline(3)->segments[0].phase, SpanPhase::kPrefill);
}

TEST(SpanTrackerTest, RestartFoldsIncarnationIntoPenalty)
{
    SpanTracker t;
    t.transition(9, SpanPhase::kQueue, 1000);
    t.transition(9, SpanPhase::kPrefill, 2000);
    t.restart(9, 5000);

    const SpanTimeline* tl = t.liveTimeline(9);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->restarts, 1);
    // The queue+prefill work collapsed into one penalty segment.
    ASSERT_EQ(tl->segments.size(), 1u);
    EXPECT_EQ(tl->segments[0].phase, SpanPhase::kRestartPenalty);
    EXPECT_EQ(tl->segments[0].startUs, 1000);
    EXPECT_EQ(tl->segments[0].endUs, 5000);

    // Re-admission reopens at the restart timestamp: contiguous.
    t.transition(9, SpanPhase::kQueue, 5000);
    EXPECT_EQ(t.integrityError(), "");
    t.transition(9, SpanPhase::kPrefill, 6000);
    t.transition(9, SpanPhase::kDecode, 8000);
    t.complete(9, 9000, 2.0);

    const LatencyBreakdown bd = t.breakdown();
    auto total = [&](SpanPhase p) {
        return bd.phases[static_cast<std::size_t>(p)].totalMs;
    };
    EXPECT_DOUBLE_EQ(total(SpanPhase::kRestartPenalty), 4.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kQueue), 1.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kPrefill), 2.0);
    EXPECT_DOUBLE_EQ(total(SpanPhase::kDecode), 1.0);
    EXPECT_DOUBLE_EQ(bd.attributedTotalMs, bd.e2eTotalMs);
    EXPECT_DOUBLE_EQ(bd.e2eTotalMs, 8.0);
}

TEST(SpanTrackerTest, BackToBackRestartsExtendOnePenalty)
{
    SpanTracker t;
    t.transition(4, SpanPhase::kQueue, 0);
    t.restart(4, 1000);
    t.transition(4, SpanPhase::kQueue, 1000);
    t.restart(4, 3000);
    const SpanTimeline* tl = t.liveTimeline(4);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->restarts, 2);
    ASSERT_EQ(tl->segments.size(), 1u);
    EXPECT_EQ(tl->segments[0].startUs, 0);
    EXPECT_EQ(tl->segments[0].endUs, 3000);
}

TEST(SpanTrackerTest, ExemplarsKeepWorstKSortedDescending)
{
    SpanTrackerConfig config;
    config.exemplarK = 2;
    SpanTracker t(config);
    const double slowdowns[] = {1.0, 5.0, 3.0, 4.0};
    sim::TimeUs now = 0;
    std::uint64_t id = 1;
    for (double s : slowdowns) {
        t.transition(id, SpanPhase::kQueue, now);
        now += 100;
        t.complete(id, now, s);
        ++id;
    }
    const auto& ex = t.exemplars();
    ASSERT_EQ(ex.size(), 2u);
    EXPECT_DOUBLE_EQ(ex[0].slowdown, 5.0);
    EXPECT_DOUBLE_EQ(ex[1].slowdown, 4.0);
    EXPECT_EQ(ex[0].timeline.requestId, 2u);
    EXPECT_EQ(ex[1].timeline.requestId, 4u);
    // Retained exemplar timelines are complete and closed.
    for (const auto& e : ex) {
        EXPECT_NE(e.timeline.doneUs, kSpanOpen);
        for (const auto& seg : e.timeline.segments)
            EXPECT_NE(seg.endUs, kSpanOpen);
    }
}

TEST(SpanTrackerTest, FlightRecorderKeepsMostRecentOldestFirst)
{
    // Two completions past the ring's capacity evict the two oldest.
    constexpr std::uint64_t kCompleted =
        SpanTracker::kFlightRecorderCapacity + 2;
    SpanTracker t;
    for (std::uint64_t id = 1; id <= kCompleted; ++id) {
        t.transition(id, SpanPhase::kQueue,
                     static_cast<sim::TimeUs>(id * 10));
        t.complete(id, static_cast<sim::TimeUs>(id * 10 + 5), 1.0);
    }
    t.transition(1000, SpanPhase::kPrefill, 5000);  // still live

    const std::string json = t.flightRecorderJson();
    // Requests 1 and 2 were evicted; the oldest survivor, 3, opens
    // the recent section and precedes 4 and 258 (oldest first); the
    // live request appears in the "live" section with an open
    // segment.
    EXPECT_EQ(json.find("\"request\":1,"), std::string::npos);
    EXPECT_EQ(json.find("\"request\":2,"), std::string::npos);
    EXPECT_EQ(json.find("{\"recent\":[{\"request\":3,"), 0u);
    const auto at4 = json.find("\"request\":4,");
    const auto at258 = json.find("\"request\":258,");
    ASSERT_NE(at4, std::string::npos);
    ASSERT_NE(at258, std::string::npos);
    EXPECT_LT(at4, at258);
    const auto live = json.find("\"live\":[");
    ASSERT_NE(live, std::string::npos);
    EXPECT_GT(live, at258);
    const auto at1000 = json.find("\"request\":1000");
    ASSERT_NE(at1000, std::string::npos);
    EXPECT_GT(at1000, live);
    EXPECT_NE(json.find("\"end_us\":-1", at1000), std::string::npos);
}

TEST(SpanTrackerTest, AttributionJsonCarriesPhasesAndExemplars)
{
    SpanTrackerConfig config;
    config.exemplarK = 1;
    SpanTracker t(config);
    t.transition(11, SpanPhase::kQueue, 0);
    t.transition(11, SpanPhase::kPrefill, 2000);
    t.transition(11, SpanPhase::kDecode, 7000);
    t.complete(11, 12000, 3.5);

    const std::string json = t.attributionJson();
    EXPECT_NE(json.find("\"requests\":1"), std::string::npos);
    EXPECT_NE(json.find("\"e2e_total_ms\":12"), std::string::npos);
    EXPECT_NE(json.find("\"attributed_total_ms\":12"), std::string::npos);
    for (const char* phase :
         {"\"queue\"", "\"prefill\"", "\"decode\"", "\"restart_penalty\""})
        EXPECT_NE(json.find(phase), std::string::npos) << phase;
    EXPECT_NE(json.find("\"slowdown\":3.5"), std::string::npos);
    EXPECT_NE(json.find("\"spans\":["), std::string::npos);
}

TEST(SpanTrackerTest, SlotsAreRecycledAcrossRequests)
{
    SpanTracker t;
    for (std::uint64_t id = 1; id <= 100; ++id) {
        t.transition(id, SpanPhase::kQueue,
                     static_cast<sim::TimeUs>(id));
        t.transition(id, SpanPhase::kDecode,
                     static_cast<sim::TimeUs>(id + 1));
        t.complete(id, static_cast<sim::TimeUs>(id + 2), 1.0);
    }
    EXPECT_EQ(t.liveCount(), 0u);
    EXPECT_EQ(t.completedCount(), 100u);
    // A recycled slot starts a fresh timeline, not a stale one.
    t.transition(500, SpanPhase::kQueue, 1000);
    const SpanTimeline* tl = t.liveTimeline(500);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->requestId, 500u);
    EXPECT_EQ(tl->restarts, 0);
    EXPECT_EQ(tl->arrivalUs, 1000);
    EXPECT_EQ(tl->segments.size(), 1u);
    EXPECT_EQ(t.integrityError(), "");
}

TEST(SpanTrackerDeathTest, CompleteForUntrackedRequestPanics)
{
    SpanTracker t;
    EXPECT_DEATH(t.complete(99, 0, 1.0), "untracked");
}

TEST(SpanTrackerDeathTest, RestartForUntrackedRequestPanics)
{
    SpanTracker t;
    EXPECT_DEATH(t.restart(99, 0), "untracked");
}

}  // namespace
}  // namespace splitwise::telemetry
