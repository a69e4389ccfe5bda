#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace splitwise::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0);
}

TEST(SimulatorTest, RunAdvancesClockToEventTimes)
{
    Simulator s;
    std::vector<TimeUs> seen;
    s.post(100, [&] { seen.push_back(s.now()); });
    s.post(250, [&] { seen.push_back(s.now()); });
    s.run();
    EXPECT_EQ(s.executedEvents(), 2u);
    EXPECT_EQ(seen, (std::vector<TimeUs>{100, 250}));
    EXPECT_EQ(s.now(), 250);
}

TEST(SimulatorTest, ScheduleAfterIsRelative)
{
    Simulator s;
    TimeUs fired_at = -1;
    s.post(100, [&] {
        s.postAfter(50, [&] { fired_at = s.now(); });
    });
    s.run();
    EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents)
{
    Simulator s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            s.postAfter(10, chain);
    };
    s.post(0, chain);
    s.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(s.now(), 40);
}

TEST(SimulatorTest, StepExecutesOneEvent)
{
    Simulator s;
    int count = 0;
    s.post(1, [&] { ++count; });
    s.post(2, [&] { ++count; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(count, 2);
}

TEST(SimulatorDeathTest, SchedulingInThePastPanics)
{
    Simulator s;
    s.post(100, [] {});
    s.run();
    EXPECT_DEATH(s.post(50, [] {}), "before now");
}

TEST(SimulatorDeathTest, NegativeDelayPanics)
{
    Simulator s;
    EXPECT_DEATH(s.postAfter(-1, [] {}), "negative delay");
}

TEST(SimulatorTest, ExecutedEventsAccumulatesAcrossRuns)
{
    Simulator s;
    s.post(1, [] {});
    s.post(2, [] {});
    EXPECT_TRUE(s.step());
    s.run();
    EXPECT_EQ(s.executedEvents(), 2u);
}

TEST(SimulatorTest, TimeAdvanceHookSeesTheJumpBeforeItHappens)
{
    Simulator s;
    std::vector<std::pair<TimeUs, TimeUs>> jumps;  // (now, next)
    s.addTimeAdvanceHook(
        [&](TimeUs next) { jumps.emplace_back(s.now(), next); });
    s.post(100, [] {});
    s.post(100, [] {});  // same-time event: no jump, no hook
    s.post(250, [] {});
    s.run();
    ASSERT_EQ(jumps.size(), 2u);
    EXPECT_EQ(jumps[0], (std::pair<TimeUs, TimeUs>{0, 100}));
    EXPECT_EQ(jumps[1], (std::pair<TimeUs, TimeUs>{100, 250}));
}

TEST(SimulatorTest, TimeAdvanceHookFiresOnStepToo)
{
    Simulator s;
    TimeUs next_seen = -1;
    s.addTimeAdvanceHook([&](TimeUs next) { next_seen = next; });
    s.post(42, [] {});
    s.step();
    EXPECT_EQ(next_seen, 42);
}

TEST(SimulatorTest, RemovedTimeAdvanceHookDetaches)
{
    Simulator s;
    int fired = 0;
    const Simulator::HookId id =
        s.addTimeAdvanceHook([&](TimeUs) { ++fired; });
    s.post(10, [] {});
    s.run();
    EXPECT_EQ(fired, 1);
    s.removeTimeAdvanceHook(id);
    s.removeTimeAdvanceHook(id);  // idempotent
    s.post(20, [] {});
    s.run();
    EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, TimeAdvanceHooksRunInAttachmentOrder)
{
    Simulator s;
    std::vector<int> order;
    s.addTimeAdvanceHook([&](TimeUs) { order.push_back(1); });
    const Simulator::HookId middle =
        s.addTimeAdvanceHook([&](TimeUs) { order.push_back(2); });
    s.addTimeAdvanceHook([&](TimeUs) { order.push_back(3); });
    s.post(10, [] {});
    s.run();
    s.removeTimeAdvanceHook(middle);
    s.post(20, [] {});
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1, 3}));
}

TEST(SimulatorTest, SameTimeEventsRunInScheduleOrder)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        s.post(42, [&order, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 10; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace splitwise::sim
