#ifndef SPLITWISE_ENGINE_REQUEST_POOL_H_
#define SPLITWISE_ENGINE_REQUEST_POOL_H_

/**
 * @file
 * Pooled, index-addressed storage for live request state.
 *
 * Requests used to be heap-allocated one by one and kept alive until
 * the end of the run, making the live set O(total arrivals). The
 * pool extends the event engine's zero-allocation discipline to
 * requests: rows live in fixed-size slabs (stable addresses - the
 * machines, scheduler, and transfer engine keep holding raw
 * LiveRequest pointers), a free list recycles retired slots, and the
 * slot-state columns (live flags) are kept separate from the rows so
 * cluster-wide scans walk the column and touch row memory only for
 * live slots. Steady-state memory is O(in-flight requests), not
 * O(trace length).
 *
 * ABA protection: in-flight events capture (pointer, restartEpoch)
 * pairs and drop themselves when the epochs no longer match.
 * acquire() therefore *preserves and bumps* the slot's restartEpoch
 * instead of zeroing it, so the epoch doubles as a slot incarnation
 * counter: any event captured against a previous occupant of the
 * slot sees a mismatch and drops.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/request.h"

namespace splitwise::engine {

class RequestPool {
  public:
    /** @param slab_slots Rows per slab (power of two not required). */
    explicit RequestPool(std::size_t slab_slots = 4096);

    RequestPool(const RequestPool&) = delete;
    RequestPool& operator=(const RequestPool&) = delete;

    /**
     * Take a slot off the free list (growing a slab if none are
     * free) and reset its row to a fresh request - except for
     * restartEpoch, which is bumped (see the ABA note above), and the
     * span segment buffer, which keeps its capacity.
     */
    LiveRequest* acquire();

    /**
     * Return a slot to the free list. The caller must drop every
     * pointer it holds; epoch-guarded events may still read the row
     * (the memory stays valid) but must not act on it.
     */
    void release(LiveRequest* request);

    /** Slots currently acquired. */
    std::size_t liveCount() const { return liveCount_; }

    /** Total acquire() calls over the pool's lifetime. */
    std::uint64_t acquiredTotal() const { return acquiredTotal_; }

    /** Maximum simultaneously-live slots seen so far. */
    std::size_t highWater() const { return highWater_; }

    /** Slots allocated across all slabs. */
    std::size_t capacity() const { return liveBits_.size(); }

    /**
     * Bumped on every acquire and release; index caches (e.g. the
     * DST checker's id map) rebuild when it moves.
     */
    std::uint64_t version() const { return version_; }

    /**
     * Disable slot recycling: release() drops the slot from the live
     * set but never reuses it, reproducing the pre-pool O(total
     * arrivals) footprint. Benchmark baseline only.
     */
    void setRecycling(bool on) { recycle_ = on; }

    /**
     * Visit every live request in slot-index order. The visitor must
     * not acquire or release slots. The walk stops past the highest
     * slot ever handed out, so a mostly idle slab costs nothing.
     */
    template <typename Fn>
    void
    forEachLive(Fn&& fn) const
    {
        for (std::size_t slot = 0; slot < usedSlots_; ++slot) {
            if (liveBits_[slot])
                fn(*rowAt(slot));
        }
    }

  private:
    LiveRequest* rowAt(std::size_t slot) const;
    void growSlab();

    std::size_t slabSlots_;
    /** Fixed-size row arrays; never reallocated, addresses stable. */
    std::vector<std::unique_ptr<LiveRequest[]>> slabs_;
    /** Columnar slot state, index-addressed alongside the rows. */
    std::vector<std::uint8_t> liveBits_;
    /** Released slot indices, reused LIFO (cache-warm first). */
    std::vector<std::uint32_t> freeList_;

    std::size_t liveCount_ = 0;
    std::size_t highWater_ = 0;
    /** One past the highest slot ever acquired. */
    std::size_t usedSlots_ = 0;
    std::uint64_t acquiredTotal_ = 0;
    std::uint64_t version_ = 0;
    bool recycle_ = true;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_REQUEST_POOL_H_
