#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

namespace splitwise::sim {
namespace {

/**
 * Global allocation counter for the zero-allocation steady-state
 * assertions. Defined in this TU, so it observes every operator new
 * in the test binary - including any the queue or EventAction would
 * perform.
 */
std::uint64_t g_allocations = 0;

}  // namespace
}  // namespace splitwise::sim

void*
operator new(std::size_t size)
{
    ++splitwise::sim::g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    ++splitwise::sim::g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace splitwise::sim {
namespace {

void
drain(EventQueue& q)
{
    while (!q.empty())
        q.pop().action();
}

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTime(), kTimeNever);
}

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.post(30, [&] { order.push_back(3); });
    q.post(10, [&] { order.push_back(1); });
    q.post(20, [&] { order.push_back(2); });
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.post(5, [&] { order.push_back(1); }, 1);
    q.post(5, [&] { order.push_back(2); }, 0);
    q.post(5, [&] { order.push_back(3); }, 0);
    drain(q);
    // Priority 0 first; equal priorities preserve insertion order.
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueueTest, ManySameTimeEventsKeepInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        q.post(7, [&order, i] { order.push_back(i); });
    drain(q);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeTracksHead)
{
    EventQueue q;
    q.post(50, [] {});
    q.post(20, [] {});
    EXPECT_EQ(q.nextTime(), 20);
    (void)q.pop();
    EXPECT_EQ(q.nextTime(), 50);
}

TEST(EventQueueTest, PopReturnsTimeAndAction)
{
    EventQueue q;
    q.post(33, [] {}, 4);
    Event ev = q.pop();
    EXPECT_EQ(ev.time, 33);
    EXPECT_TRUE(static_cast<bool>(ev.action));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.integrityError(), "");
}

TEST(EventQueueTest, CallbackCanScheduleIntoRecycledSlot)
{
    EventQueue q;
    std::vector<int> order;
    q.post(1, [&] {
        order.push_back(1);
        // The fired event's slot is already retired: this scheduling
        // recycles it while the callback is still running.
        q.post(2, [&order] { order.push_back(2); });
    });
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.integrityError(), "");
}

// ---------------------------------------------------------------
// Pooling and the zero-allocation steady state.
// ---------------------------------------------------------------

TEST(EventQueueTest, PoolReusesSlotsAfterDrain)
{
    EventQueue q;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 32; ++i)
            q.post(round * 100 + i, [] {});
        drain(q);
    }
    const auto stats = q.memoryStats();
    // The pool never grows past the high-water mark of one round.
    EXPECT_EQ(stats.poolSlots, 32u);
    EXPECT_EQ(stats.freeSlots, 32u);
    EXPECT_EQ(stats.poolGrowths, 32u);
}

TEST(EventQueueTest, ReservePreallocatesPool)
{
    EventQueue q;
    q.reserve(64);
    const auto before = q.memoryStats();
    EXPECT_EQ(before.poolSlots, 64u);
    for (int i = 0; i < 64; ++i)
        q.post(i, [] {});
    const auto after = q.memoryStats();
    EXPECT_EQ(after.poolSlots, 64u);
    EXPECT_EQ(after.poolGrowths, 0u);
    drain(q);
}

TEST(EventQueueTest, SteadyStateLoopPerformsZeroHeapAllocations)
{
    EventQueue q;
    q.reserve(128);
    // Warm up: reach the steady-state depth once.
    for (int i = 0; i < 128; ++i)
        q.post(i, [] {});
    drain(q);

    const std::uint64_t fallbacks_before = EventAction::heapFallbacks();
    const std::uint64_t allocs_before = g_allocations;
    // The steady-state loop of the simulation: pop one event,
    // schedule a few more, repeat. Captures sized like the hot-path
    // closures (a this-pointer and a couple of scalars).
    std::uint64_t fired = 0;
    int depth = 0;
    for (int i = 0; i < 64; ++i)
        q.post(i, [&fired, &depth] { ++fired; --depth; });
    depth = 64;
    TimeUs now = 0;
    while (!q.empty() && fired < 100000) {
        Event ev = q.pop();
        now = ev.time;
        ev.action();
        while (depth < 64) {
            q.post(now + 1 + depth, [&fired, &depth] { ++fired; --depth; });
            ++depth;
        }
    }
    const std::uint64_t allocs_after = g_allocations;
    const std::uint64_t fallbacks_after = EventAction::heapFallbacks();

    EXPECT_GE(fired, 100000u);
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "steady-state schedule/pop loop must not allocate";
    EXPECT_EQ(fallbacks_after - fallbacks_before, 0u)
        << "hot-path captures must fit EventAction's inline buffer";
    EXPECT_EQ(q.memoryStats().poolGrowths, 0u);
}

TEST(EventQueueTest, ScheduledCountAccumulates)
{
    EventQueue q;
    q.post(1, [] {});
    q.post(2, [] {});
    (void)q.pop();
    q.post(3, [] {});
    EXPECT_EQ(q.scheduledCount(), 3u);
    drain(q);
    EXPECT_EQ(q.scheduledCount(), 3u);
}

TEST(EventQueueDeathTest, EmptyActionPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.post(1, EventAction()), "empty action");
}

TEST(EventQueueDeathTest, PopOnEmptyPanics)
{
    EventQueue q;
    EXPECT_DEATH((void)q.pop(), "empty queue");
}

}  // namespace
}  // namespace splitwise::sim
