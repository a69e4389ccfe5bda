#include "engine/request_pool.h"

#include <utility>

#include "sim/log.h"

namespace splitwise::engine {

RequestPool::RequestPool(std::size_t slab_slots) : slabSlots_(slab_slots)
{
    if (slab_slots == 0)
        sim::fatal("RequestPool: slab size must be positive");
}

LiveRequest*
RequestPool::rowAt(std::size_t slot) const
{
    return &slabs_[slot / slabSlots_][slot % slabSlots_];
}

void
RequestPool::growSlab()
{
    slabs_.push_back(std::make_unique<LiveRequest[]>(slabSlots_));
    const std::size_t base = liveBits_.size();
    liveBits_.resize(base + slabSlots_, 0);
    // Push in reverse so the LIFO free list hands out ascending slot
    // indices within a fresh slab.
    for (std::size_t i = slabSlots_; i-- > 0;)
        freeList_.push_back(static_cast<std::uint32_t>(base + i));
}

LiveRequest*
RequestPool::acquire()
{
    if (freeList_.empty())
        growSlab();
    const std::uint32_t slot = freeList_.back();
    freeList_.pop_back();

    LiveRequest* row = rowAt(slot);
    // Preserve-and-bump: the epoch survives the reset as the slot's
    // incarnation counter, invalidating events captured against any
    // previous occupant. The span segment buffer survives emptied, so
    // warm span tracking allocates nothing.
    const std::uint32_t epoch = row->restartEpoch;
    auto segments = std::move(row->spans.segments);
    segments.clear();
    *row = LiveRequest{};
    row->restartEpoch = epoch + 1;
    row->poolSlot = slot;
    row->spans.segments = std::move(segments);

    liveBits_[slot] = 1;
    ++liveCount_;
    ++acquiredTotal_;
    ++version_;
    if (liveCount_ > highWater_)
        highWater_ = liveCount_;
    if (slot >= usedSlots_)
        usedSlots_ = slot + 1;
    return row;
}

void
RequestPool::release(LiveRequest* request)
{
    const std::uint32_t slot = request->poolSlot;
    if (slot >= liveBits_.size() || rowAt(slot) != request)
        sim::panic("RequestPool: release of a non-pool request");
    if (!liveBits_[slot])
        sim::panic("RequestPool: double release of slot " +
                   std::to_string(slot));
    liveBits_[slot] = 0;
    --liveCount_;
    ++version_;
    if (recycle_)
        freeList_.push_back(slot);
}

}  // namespace splitwise::engine
