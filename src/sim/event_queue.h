#ifndef SPLITWISE_SIM_EVENT_QUEUE_H_
#define SPLITWISE_SIM_EVENT_QUEUE_H_

/**
 * @file
 * The discrete-event priority queue behind the simulator.
 *
 * Design (see DESIGN.md "Event engine"):
 *
 *  - A 4-ary min-heap of slot indices into a pooled record array.
 *    Events are only ever post()ed and popped: a caller that may
 *    need to drop a stale event captures an epoch and checks it when
 *    the event fires, so the queue keeps no per-record back-index.
 *  - Records come from a free list and are recycled after they fire,
 *    so the steady-state post/pop loop allocates nothing once the
 *    pool reaches its high-water mark.
 *  - Actions are EventAction (small-buffer-optimized); the common
 *    capture shapes in machine.cc / kv_transfer.cc / cluster.cc stay
 *    inline.
 *  - Ordering is (time, priority, insertion sequence): lower
 *    priority values run first at equal timestamps, and remaining
 *    ties preserve posting order - the determinism contract every
 *    golden/DST suite pins down.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_action.h"
#include "sim/time.h"

namespace splitwise::sim {

/**
 * An event popped from the queue, ready to run. The action has been
 * moved out of the pool, so it stays valid even when the callback
 * posts new events that recycle the slot.
 */
struct Event {
    TimeUs time = 0;
    EventAction action;
};

/**
 * A deterministic discrete-event priority queue with O(log n) post
 * and pop (see the file comment for the layout).
 */
class EventQueue {
  public:
    EventQueue() = default;

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedule an action at an absolute simulated time.
     *
     * @param time Absolute timestamp.
     * @param action Callback to execute.
     * @param priority Tie-break at equal times; lower runs first.
     */
    void post(TimeUs time, EventAction action, int priority = 0);

    /** True when no pending events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Timestamp of the earliest pending event; kTimeNever when empty. */
    TimeUs nextTime() const;

    /**
     * Pop and return the earliest pending event.
     *
     * @pre !empty()
     */
    Event pop();

    /** Total events ever scheduled (statistics/debugging). */
    std::uint64_t scheduledCount() const { return scheduled_; }

    /** Allocation-behaviour counters for the steady-state tests. */
    struct MemoryStats {
        /** Pool slots ever created (high-water mark of pending). */
        std::size_t poolSlots = 0;
        /** Slots currently on the free list. */
        std::size_t freeSlots = 0;
        /** Times the pool had to grow (each growth may allocate). */
        std::uint64_t poolGrowths = 0;
    };

    MemoryStats
    memoryStats() const
    {
        return {records_.size(), free_.size(), poolGrowths_};
    }

    /**
     * Pre-size the pool (and heap array) for @p events pending
     * events, so a run reaching that depth never allocates.
     */
    void reserve(std::size_t events);

    /**
     * Structural self-check for the DST invariant hook: verifies the
     * heap property, that every pending slot holds an action, and
     * free-list accounting.
     *
     * @return Empty string when consistent, else a description of
     *     the first inconsistency found.
     */
    std::string integrityError() const;

  private:
    struct Record {
        TimeUs time = 0;
        /** Insertion sequence: the final deterministic tie-break. */
        std::uint64_t seq = 0;
        int priority = 0;
        EventAction action;
    };

    /** True when the record at slot @p a orders before slot @p b. */
    bool
    before(std::uint32_t a, std::uint32_t b) const
    {
        const Record& ra = records_[a];
        const Record& rb = records_[b];
        if (ra.time != rb.time)
            return ra.time < rb.time;
        if (ra.priority != rb.priority)
            return ra.priority < rb.priority;
        return ra.seq < rb.seq;
    }

    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);

    /** Event records, indexed by slot; grows only at high-water. */
    std::vector<Record> records_;
    /** 4-ary min-heap of slot indices. */
    std::vector<std::uint32_t> heap_;
    /** Recycled slots (LIFO keeps the hot slots cache-warm). */
    std::vector<std::uint32_t> free_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t poolGrowths_ = 0;
};

}  // namespace splitwise::sim

#endif  // SPLITWISE_SIM_EVENT_QUEUE_H_
