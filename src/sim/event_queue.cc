#include "sim/event_queue.h"

#include <utility>

#include "sim/log.h"

namespace splitwise::sim {

namespace {

/** 4-ary heap geometry: children of i are 4i+1 .. 4i+4. */
constexpr std::uint32_t kArity = 4;

constexpr std::uint32_t
parentOf(std::uint32_t pos)
{
    return (pos - 1) / kArity;
}

constexpr std::uint32_t
firstChildOf(std::uint32_t pos)
{
    return kArity * pos + 1;
}

}  // namespace

void
EventQueue::post(TimeUs time, EventAction action, int priority)
{
    if (!action)
        panic("EventQueue: scheduling an empty action");

    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(records_.size());
        records_.emplace_back();
        ++poolGrowths_;
    }

    Record& r = records_[slot];
    r.time = time;
    r.priority = priority;
    r.seq = nextSeq_++;
    r.action = std::move(action);

    heap_.push_back(slot);
    siftUp(static_cast<std::uint32_t>(heap_.size()) - 1);
}

TimeUs
EventQueue::nextTime() const
{
    return heap_.empty() ? kTimeNever : records_[heap_.front()].time;
}

Event
EventQueue::pop()
{
    if (heap_.empty())
        panic("EventQueue::pop on empty queue");
    const std::uint32_t slot = heap_.front();
    Record& r = records_[slot];

    // Moving the action out empties the record, so the slot can be
    // recycled at once, even by the callback about to run.
    Event ev{r.time, std::move(r.action)};
    free_.push_back(slot);

    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
    return ev;
}

void
EventQueue::siftUp(std::uint32_t pos)
{
    const std::uint32_t slot = heap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = parentOf(pos);
        if (!before(slot, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = slot;
}

void
EventQueue::siftDown(std::uint32_t pos)
{
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    const std::uint32_t slot = heap_[pos];
    while (true) {
        const std::uint32_t first = firstChildOf(pos);
        if (first >= n)
            break;
        std::uint32_t best = first;
        const std::uint32_t end = std::min(first + kArity, n);
        for (std::uint32_t c = first + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], slot))
            break;
        heap_[pos] = heap_[best];
        pos = best;
    }
    heap_[pos] = slot;
}

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    free_.reserve(events);
    while (records_.size() < events) {
        records_.emplace_back();
        free_.push_back(static_cast<std::uint32_t>(records_.size() - 1));
    }
}

std::string
EventQueue::integrityError() const
{
    if (heap_.size() + free_.size() != records_.size()) {
        return "slot accounting broken: " + std::to_string(heap_.size()) +
               " in heap + " + std::to_string(free_.size()) + " free != " +
               std::to_string(records_.size()) + " pooled";
    }
    for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
        const std::uint32_t slot = heap_[pos];
        if (slot >= records_.size())
            return "heap entry " + std::to_string(pos) + " out of pool";
        if (!records_[slot].action)
            return "pending slot " + std::to_string(slot) +
                   " holds no action";
        if (pos > 0 && before(slot, heap_[parentOf(pos)])) {
            return "heap property violated at position " +
                   std::to_string(pos);
        }
    }
    for (const std::uint32_t slot : free_) {
        if (slot >= records_.size())
            return "free-list entry out of pool";
        if (records_[slot].action)
            return "free slot " + std::to_string(slot) +
                   " still holds an action";
    }
    return {};
}

}  // namespace splitwise::sim
