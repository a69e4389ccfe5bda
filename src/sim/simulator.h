#ifndef SPLITWISE_SIM_SIMULATOR_H_
#define SPLITWISE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_action.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/time.h"

namespace splitwise::sim {

/**
 * The discrete-event simulation driver.
 *
 * Owns the simulated clock and the event queue. Components post
 * callbacks at absolute or relative times; run() executes events in
 * deterministic order until the queue drains. A component that may
 * need to drop an event it posted captures an epoch and ignores the
 * event if the epoch has moved on when it fires.
 */
class Simulator {
  public:
    /**
     * Construction attaches this simulator's clock as the thread's
     * log-context clock (see sim::setLogClock), so every log emitted
     * while this simulator drives the thread carries a `t_us=` field.
     * The latest-constructed simulator on a thread wins; destruction
     * detaches only if this clock is still the attached one.
     */
    Simulator() { setLogClock(&now_); }

    ~Simulator()
    {
        if (logClock() == &now_)
            setLogClock(nullptr);
    }

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    TimeUs now() const { return now_; }

    /**
     * Schedule a fire-and-forget action at an absolute time.
     *
     * Scheduling in the past is an internal error (panic).
     */
    void
    post(TimeUs time, EventAction action, int priority = 0)
    {
        checkNotPast(time);
        queue_.post(time, std::move(action), priority);
    }

    /** Schedule a fire-and-forget action @p delay us from now. */
    void
    postAfter(TimeUs delay, EventAction action, int priority = 0)
    {
        checkDelay(delay);
        queue_.post(now_ + delay, std::move(action), priority);
    }

    /** Run until the event queue drains. */
    void run();

    /**
     * Execute exactly one event if one is pending.
     *
     * @return true if an event ran.
     */
    bool step();

    /**
     * Observer invoked whenever the clock is about to advance, with
     * the time of the event about to execute; now() still reads the
     * pre-advance time inside the hook. Telemetry samplers and the
     * DST invariant checker use this to observe the simulation at
     * every quiescent point (all events at earlier timestamps have
     * fully executed) without scheduling events of their own (which
     * would keep the queue from draining). Costs the loop one branch
     * when no hook is attached.
     */
    using TimeAdvanceHook = std::function<void(TimeUs next)>;

    /** Handle identifying an attached time-advance hook. */
    using HookId = std::size_t;

    /**
     * Attach a time-advance observer. Hooks run in attachment order.
     *
     * @return Handle for removeTimeAdvanceHook().
     */
    HookId addTimeAdvanceHook(TimeAdvanceHook hook);

    /** Detach a hook added with addTimeAdvanceHook(); idempotent. */
    void removeTimeAdvanceHook(HookId id);

    /** Number of pending events. */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed over the simulator's lifetime. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Read-only view of the event queue, for the DST invariant
     * checker's structural integrity probe and the steady-state
     * allocation tests.
     */
    const EventQueue& eventQueue() const { return queue_; }

  private:
    /** Fire every attached hook for an advance to @p next. */
    void fireTimeAdvance(TimeUs next);

    [[noreturn]] void panicPast(TimeUs time) const;
    [[noreturn]] void panicNegativeDelay() const;

    void
    checkNotPast(TimeUs time) const
    {
        if (time < now_)
            panicPast(time);
    }

    void
    checkDelay(TimeUs delay) const
    {
        if (delay < 0)
            panicNegativeDelay();
    }

    EventQueue queue_;
    TimeUs now_ = 0;
    std::uint64_t executed_ = 0;
    /** Attached observers; removal nulls the slot to keep ids stable. */
    std::vector<TimeAdvanceHook> hooks_;
};

}  // namespace splitwise::sim

#endif  // SPLITWISE_SIM_SIMULATOR_H_
