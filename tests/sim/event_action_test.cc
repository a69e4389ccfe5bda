#include "sim/event_action.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace splitwise::sim {
namespace {

TEST(EventActionTest, DefaultIsEmpty)
{
    EventAction a;
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(a.onHeap());
}

TEST(EventActionTest, InvokesSmallCallableInline)
{
    int calls = 0;
    EventAction a([&calls] { ++calls; });
    ASSERT_TRUE(static_cast<bool>(a));
    EXPECT_FALSE(a.onHeap());
    a();
    a();
    EXPECT_EQ(calls, 2);
}

TEST(EventActionTest, HotPathCaptureShapesStayInline)
{
    // The shapes the simulator schedules on its hot path. If one of
    // these outgrows the inline budget the steady state silently
    // starts allocating - keep these asserts in sync with
    // EventAction::kInlineBytes.
    struct MachineCompletion {
        void* self;
        std::uint64_t epoch;
    };
    static_assert(sizeof(MachineCompletion) <= EventAction::kInlineBytes);

    struct KvDelivery {
        void* self;
        void* request;
        void* src;
        void* dst;
        std::uint32_t epoch;
        std::int64_t prompt_compute;
        int attempt;
        bool timed_out;
        bool succeeds;
    };
    static_assert(sizeof(KvDelivery) <= EventAction::kInlineBytes);

    struct ClusterArrival {
        void* self;
        void* request;
    };
    static_assert(sizeof(ClusterArrival) <= EventAction::kInlineBytes);

    const std::uint64_t before = EventAction::heapFallbacks();
    int sink = 0;
    EventAction machine([p = MachineCompletion{}, &sink]() mutable {
        p.epoch++;
        ++sink;
    });
    EventAction delivery([p = KvDelivery{}, &sink]() mutable {
        p.attempt++;
        ++sink;
    });
    EventAction arrival([p = ClusterArrival{}, &sink]() mutable {
        p.self = nullptr;
        ++sink;
    });
    EXPECT_FALSE(machine.onHeap());
    EXPECT_FALSE(delivery.onHeap());
    EXPECT_FALSE(arrival.onHeap());
    EXPECT_EQ(EventAction::heapFallbacks(), before);
    machine();
    delivery();
    arrival();
    EXPECT_EQ(sink, 3);
}

TEST(EventActionTest, OversizedCaptureFallsBackToHeapAndCounts)
{
    struct Big {
        unsigned char bytes[EventAction::kInlineBytes + 1] = {};
    };
    const std::uint64_t before = EventAction::heapFallbacks();
    int calls = 0;
    EventAction a([big = Big{}, &calls]() mutable {
        big.bytes[0] = 1;
        ++calls;
    });
    EXPECT_TRUE(a.onHeap());
    EXPECT_EQ(EventAction::heapFallbacks(), before + 1);
    a();
    EXPECT_EQ(calls, 1);
}

TEST(EventActionTest, MovePreservesCallableAndState)
{
    std::vector<int> log;
    EventAction a([&log, n = 7]() mutable { log.push_back(n++); });
    EventAction b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EventAction c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));  // NOLINT: testing moved-from
    c();
    EXPECT_EQ(log, (std::vector<int>{7, 8}));
}

TEST(EventActionTest, MoveAssignDestroysPreviousCallable)
{
    auto tracker = std::make_shared<int>(0);
    EXPECT_EQ(tracker.use_count(), 1);
    EventAction a([keep = tracker] { (void)keep; });
    EXPECT_EQ(tracker.use_count(), 2);
    a = EventAction([] {});
    EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventActionTest, DestructorReleasesHeapCallable)
{
    struct Big {
        unsigned char pad[EventAction::kInlineBytes + 1] = {};
        std::shared_ptr<int> keep;
    };
    auto tracker = std::make_shared<int>(0);
    {
        EventAction a([big = Big{{}, tracker}] { (void)big; });
        EXPECT_TRUE(a.onHeap());
        EXPECT_EQ(tracker.use_count(), 2);
    }
    EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventActionTest, ResetEmptiesAndDestroys)
{
    auto tracker = std::make_shared<int>(0);
    EventAction a([keep = tracker] { (void)keep; });
    EXPECT_EQ(tracker.use_count(), 2);
    a.reset();
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_EQ(tracker.use_count(), 1);
}

TEST(EventActionTest, MovedHeapActionTransfersOwnershipWithoutCopy)
{
    struct Big {
        unsigned char pad[EventAction::kInlineBytes + 1] = {};
        std::shared_ptr<int> keep;
    };
    auto tracker = std::make_shared<int>(0);
    const std::uint64_t before = EventAction::heapFallbacks();
    EventAction a([big = Big{{}, tracker}] { (void)big; });
    EXPECT_EQ(EventAction::heapFallbacks(), before + 1);
    // Moving a heap-backed action moves the pointer, not the payload:
    // no new fallback, and ownership stays single.
    EventAction b(std::move(a));
    EXPECT_EQ(EventAction::heapFallbacks(), before + 1);
    EXPECT_TRUE(b.onHeap());
    EXPECT_EQ(tracker.use_count(), 2);
}

}  // namespace
}  // namespace splitwise::sim
