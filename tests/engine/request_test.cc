#include "engine/request.h"

#include <gtest/gtest.h>

#include <vector>

#include "engine/request_pool.h"
#include "telemetry/span_tracker.h"

namespace splitwise::engine {
namespace {

LiveRequest
makeRequest(std::int64_t prompt, std::int64_t output,
            sim::TimeUs arrival = 0)
{
    LiveRequest r;
    r.spec = {1, arrival, prompt, output};
    return r;
}

TEST(LiveRequestTest, InitialState)
{
    LiveRequest r = makeRequest(100, 5);
    EXPECT_EQ(r.phase, RequestPhase::kPromptQueued);
    EXPECT_EQ(r.generated, 0);
    EXPECT_FALSE(r.finished());
    EXPECT_EQ(r.contextTokens(), 100);
}

TEST(LiveRequestTest, FirstTokenSetsTtft)
{
    LiveRequest r = makeRequest(100, 3, sim::msToUs(10));
    r.recordToken(sim::msToUs(110));
    EXPECT_EQ(r.generated, 1);
    EXPECT_EQ(r.firstTokenTime, sim::msToUs(110));
    EXPECT_FALSE(r.finished());
}

TEST(LiveRequestTest, SubsequentTokensTrackTbt)
{
    LiveRequest r = makeRequest(100, 3);
    r.recordToken(sim::msToUs(100));
    r.recordToken(sim::msToUs(130));
    r.recordToken(sim::msToUs(190));
    EXPECT_TRUE(r.finished());
    EXPECT_DOUBLE_EQ(r.sumTbtMs, 90.0);
    EXPECT_DOUBLE_EQ(r.maxTbtMs, 60.0);
    EXPECT_DOUBLE_EQ(r.secondTokenMs, 30.0);
}

TEST(LiveRequestTest, ContextGrowsWithGeneration)
{
    LiveRequest r = makeRequest(100, 5);
    r.recordToken(1000);
    r.recordToken(2000);
    EXPECT_EQ(r.contextTokens(), 102);
}

TEST(LiveRequestTest, SingleTokenRequestFinishesAtFirstToken)
{
    LiveRequest r = makeRequest(500, 1);
    r.recordToken(sim::msToUs(50));
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.doneTime, sim::msToUs(50));
}

TEST(LiveRequestTest, ResultComputesPaperMetrics)
{
    LiveRequest r = makeRequest(200, 3, sim::msToUs(5));
    r.recordToken(sim::msToUs(100));
    r.recordToken(sim::msToUs(140));
    r.recordToken(sim::msToUs(200));
    const auto result = r.result();
    EXPECT_DOUBLE_EQ(result.ttftMs, 95.0);
    EXPECT_DOUBLE_EQ(result.tbtMs, 50.0);
    EXPECT_DOUBLE_EQ(result.maxTbtMs, 60.0);
    EXPECT_DOUBLE_EQ(result.e2eMs, 195.0);
    EXPECT_DOUBLE_EQ(result.secondTokenMs, 40.0);
    EXPECT_EQ(result.promptTokens, 200);
    EXPECT_EQ(result.outputTokens, 3);
}

TEST(LiveRequestTest, SingleTokenResultHasZeroTbt)
{
    LiveRequest r = makeRequest(100, 1);
    r.recordToken(sim::msToUs(30));
    const auto result = r.result();
    EXPECT_DOUBLE_EQ(result.tbtMs, 0.0);
    EXPECT_DOUBLE_EQ(result.e2eMs, result.ttftMs);
}

TEST(LiveRequestDeathTest, ResultOnUnfinishedPanics)
{
    LiveRequest r = makeRequest(100, 5);
    r.recordToken(1000);
    EXPECT_DEATH(r.result(), "unfinished");
}

TEST(LiveRequestTest, PhaseNamesAreStable)
{
    EXPECT_STREQ(requestPhaseName(RequestPhase::kPromptQueued),
                 "prompt-queued");
    EXPECT_STREQ(requestPhaseName(RequestPhase::kTransferring),
                 "transferring");
    EXPECT_STREQ(requestPhaseName(RequestPhase::kDone), "done");
}

TEST(LiveRequestTest, KvFlowMarkSurvivesRestart)
{
    // The trace's handoff arrow still owes its flowEnd after a crash
    // re-admits the request; only the first decode iteration clears it.
    LiveRequest r = makeRequest(100, 5);
    r.kvFlowPending = true;
    r.resetForRestart();
    EXPECT_TRUE(r.kvFlowPending);
}

TEST(RequestPoolTest, RecycledRowStartsFreshButKeepsSegmentCapacity)
{
    using telemetry::SpanPhase;
    telemetry::SpanTracker t;
    RequestPool pool(4);
    std::size_t capacity = 0;
    for (std::uint64_t id = 1; id <= 100; ++id) {
        LiveRequest* row = pool.acquire();
        row->spec.id = id;
        t.transition(row->spans, SpanPhase::kQueue,
                     static_cast<sim::TimeUs>(id));
        t.transition(row->spans, SpanPhase::kDecode,
                     static_cast<sim::TimeUs>(id + 1));
        row->kvFlowPending = true;
        t.complete(row->spans, id, static_cast<sim::TimeUs>(id + 2), 1.0);
        capacity = row->spans.segments.capacity();
        pool.release(row);
    }
    EXPECT_EQ(t.liveCount(), 0u);
    EXPECT_EQ(t.completedCount(), 100u);
    ASSERT_GE(capacity, 2u);

    // A recycled row starts with no timeline and a clear flow mark,
    // but its segment buffer keeps the capacity it grew to.
    LiveRequest* row = pool.acquire();
    EXPECT_FALSE(row->spans.open());
    EXPECT_FALSE(row->kvFlowPending);
    EXPECT_EQ(row->spans.segments.capacity(), capacity);

    // ...and a fresh timeline, not a stale one.
    row->spec.id = 500;
    t.transition(row->spans, SpanPhase::kQueue, 1000);
    EXPECT_EQ(row->spans.restarts, 0);
    EXPECT_EQ(row->spans.arrivalUs, 1000);
    EXPECT_EQ(row->spans.segments.size(), 1u);
    EXPECT_EQ(telemetry::SpanTracker::timelineDefect(row->spans), nullptr);
    EXPECT_EQ(t.liveCount(), 1u);
}

TEST(RequestPoolTest, ForEachLiveVisitsLiveSlotsInOrderAcrossSlabs)
{
    RequestPool pool(2);
    LiveRequest* first = pool.acquire();
    LiveRequest* second = pool.acquire();
    pool.acquire();  // slot 2 opens the second slab
    pool.release(second);
    EXPECT_EQ(pool.acquire(), second);  // LIFO reuse
    auto visited = [&pool] {
        std::vector<std::uint32_t> slots;
        pool.forEachLive(
            [&](const LiveRequest& req) { slots.push_back(req.poolSlot); });
        return slots;
    };
    EXPECT_EQ(visited(), (std::vector<std::uint32_t>{0, 1, 2}));

    // Without recycling, fresh slots are handed out - the rest of the
    // second slab, then a third slab - and the walk reaches them.
    pool.setRecycling(false);
    pool.release(first);
    EXPECT_EQ(pool.acquire()->poolSlot, 3u);
    EXPECT_EQ(pool.acquire()->poolSlot, 4u);
    EXPECT_EQ(visited(), (std::vector<std::uint32_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace splitwise::engine
