#ifndef SPLITWISE_ENGINE_BLOCK_MANAGER_H_
#define SPLITWISE_ENGINE_BLOCK_MANAGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/request.h"

namespace splitwise::engine {

/** Hit/miss/evict accounting for the shared-prefix tier. Survives
 *  reset() so a machine's counters span crash/recovery cycles. */
struct PrefixCacheStats {
    /** Successful prefix acquisitions (one per reusing request). */
    std::uint64_t hits = 0;
    /** Failed acquisitions: the prefix was evicted, or the request
     *  was routed to a machine that never held it. The scheduling
     *  policy counts directory-level misses separately. */
    std::uint64_t misses = 0;
    /** Refcount-zero prefixes evicted under memory pressure. */
    std::uint64_t evictions = 0;
    /** Prefix inserts plus in-place growths. */
    std::uint64_t stores = 0;
    /** Prompt tokens skipped across all hits. */
    std::int64_t hitTokens = 0;
};

/**
 * Paged KV-cache allocator, in the style of vLLM's block manager.
 *
 * GPU memory for the KV cache is carved into fixed-size blocks of
 * @c blockSize tokens. Each request's block table grows as its
 * context grows during decoding. Paging eliminates external
 * fragmentation; internal fragmentation is at most one block per
 * request, which utilization() accounts for. The tables themselves
 * live in the requests' rows (LiveRequest::kv); the manager keeps
 * only the machine-wide aggregates.
 *
 * On top of the per-request tables sits a shared-prefix tier for
 * session KV reuse: ref-counted prefix entries keyed by session,
 * evicted LRU-at-refcount-zero, and evicted automatically whenever a
 * per-request allocation needs the space (the cache is strictly
 * opportunistic use of free memory). A request that acquirePrefix()'d
 * an entry has that many tokens of its context priced out of its own
 * allocations: allocate()/extend() are called with full context sizes
 * and deduct the pinned prefix internally.
 */
class BlockManager {
  public:
    /**
     * @param capacity_tokens Total KV capacity in tokens.
     * @param block_size_tokens Tokens per block (vLLM default 16).
     */
    BlockManager(std::int64_t capacity_tokens, int block_size_tokens = 16);

    /** Holds record the manager's address, so it never moves. */
    BlockManager(const BlockManager&) = delete;
    BlockManager& operator=(const BlockManager&) = delete;

    /** Total blocks in the pool. */
    std::int64_t totalBlocks() const { return totalBlocks_; }

    /** Total token capacity of the pool. */
    std::int64_t
    tokenCapacity() const
    {
        return totalBlocks_ * blockSize_;
    }

    /** Currently unallocated blocks. */
    std::int64_t freeBlocks() const { return totalBlocks_ - usedBlocks_; }

    /** Tokens that could still be stored in free blocks. */
    std::int64_t
    freeTokens() const
    {
        return freeBlocks() * blockSize_;
    }

    /** Blocks needed to hold @p tokens. */
    std::int64_t blocksFor(std::int64_t tokens) const;

    /** True when @p tokens more could be allocated right now,
     *  counting reclaimable (refcount-zero) prefix blocks as free. */
    bool canAllocate(std::int64_t tokens) const;

    /**
     * Allocate the block table for @p request holding @p tokens of
     * context. A pinned shared prefix (acquirePrefix) is deducted
     * from @p tokens first; refcount-zero prefixes are evicted LRU as
     * needed to make room. Panics when the request already holds KV
     * on two other machines.
     *
     * @return false (and allocate nothing) when the pool is full or
     *     the request already holds an allocation here.
     */
    bool allocate(LiveRequest& request, std::int64_t tokens);

    /**
     * Grow a request's context to @p new_total_tokens, allocating
     * blocks as needed (net of any pinned shared prefix, evicting
     * reclaimable prefixes as needed).
     *
     * @return false (leaving the allocation untouched) when the
     *     request holds no allocation here or the pool cannot cover
     *     the growth.
     */
    bool extend(LiveRequest& request, std::int64_t new_total_tokens);

    /** Release a request's blocks and drop its shared-prefix pin (if
     *  any); no-op when it holds nothing here. */
    void release(LiveRequest& request);

    /** True when the request holds an allocation here. */
    bool holds(const LiveRequest& request) const;

    /** The request's live hold here (allocation and/or pin), or
     *  nullptr. */
    const KvHold* holdOf(const LiveRequest& request) const;

    /** True when @p hold is a live hold on this machine: taken here
     *  and not voided by a reset() since. */
    bool
    live(const KvHold& hold) const
    {
        return hold.owner == this && hold.generation == generation_;
    }

    /** Total context tokens currently stored (pre-rounding),
     *  including the shared-prefix tier. */
    std::int64_t usedTokens() const { return usedTokens_; }

    /** usedTokens() minus reclaimable (refcount-zero) prefix tokens:
     *  the load a scheduler should see, since the cache yields to
     *  real traffic. Equal to usedTokens() when the cache is empty. */
    std::int64_t
    committedTokens() const
    {
        return usedTokens_ - reclaimableTokens_;
    }

    /** Fraction of blocks in use (including the shared tier). */
    double utilization() const;

    /** Number of requests holding allocations. */
    std::size_t residents() const { return allocations_; }

    /**
     * Drop every allocation, prefix entry, and prefix pin, returning
     * the pool to empty. Bumping the generation voids every
     * request's hold without visiting it. Stats survive: a machine
     * crash wipes its KV (and its cached prefixes) but not its
     * lifetime counters.
     */
    void reset();

    // Shared-prefix tier -------------------------------------------------

    /**
     * Cached prefix tokens for @p key (0 = not cached). Bumps the
     * entry's LRU position: the caller is about to route against it.
     */
    std::int64_t lookupPrefix(std::uint64_t key);

    /**
     * Insert or grow the cached prefix for @p key to @p tokens,
     * evicting refcount-zero prefixes LRU as needed. Entries never
     * shrink; storing fewer tokens than cached just bumps the LRU.
     *
     * @return false (cache unchanged) when the pool cannot make room.
     */
    bool storePrefix(std::uint64_t key, std::int64_t tokens);

    /**
     * Pin the prefix for @p key on behalf of @p request:
     * refcount+1, and the entry's current size is deducted from the
     * request's subsequent allocate()/extend() calls. Counted as a
     * hit; a pinned entry cannot be evicted.
     *
     * @return false (counted as a miss) when the key is not cached or
     *     the request already pins a prefix here.
     */
    bool acquirePrefix(std::uint64_t key, LiveRequest& request);

    /** Number of cached prefix entries. */
    std::size_t sharedPrefixCount() const { return prefixes_.size(); }

    /** Refcount of @p key's entry; -1 when not cached. */
    std::int64_t prefixRefcount(std::uint64_t key) const;

    /** Lifetime hit/miss/evict/store counters. */
    const PrefixCacheStats& prefixStats() const { return stats_; }

    /**
     * Audit the allocator's accounting against @p holders, every
     * request that may hold KV here: each live hold's block count
     * matches blocksFor(), the allocation count and the
     * used-block/used-token aggregates equal the holds' sums plus
     * the shared tier, each entry's refcount equals the live pins
     * on it, and usage stays within [0, capacity]. The DST
     * invariant checker calls this at every quiescent point; a leak
     * or double-release shows up as an aggregate mismatch.
     *
     * @return Empty string when consistent, else a description of
     *     the first inconsistency found.
     */
    std::string audit(const std::vector<const LiveRequest*>& holders) const;

  private:
    struct SharedPrefix {
        std::int64_t tokens = 0;
        std::int64_t blocks = 0;
        std::int64_t refcount = 0;
        /** LRU position: larger = more recently used. */
        std::uint64_t lastUse = 0;
    };

    /** The request's live hold here, or nullptr. */
    KvHold* find(LiveRequest& request) const;

    /** Take an unused (or voided) record of @p request for a new
     *  hold here; panics when both records hold KV elsewhere. */
    KvHold& claim(LiveRequest& request) const;

    /** Evict refcount-zero prefixes (LRU first, key as tie-break)
     *  until at least @p need_blocks are free. */
    bool reclaimFor(std::int64_t need_blocks);

    void touch(SharedPrefix& entry) { entry.lastUse = ++useTick_; }

    std::int64_t totalBlocks_ = 0;
    std::int64_t usedBlocks_ = 0;
    std::int64_t usedTokens_ = 0;
    std::int64_t sharedBlocks_ = 0;
    std::int64_t sharedTokens_ = 0;
    std::int64_t reclaimableBlocks_ = 0;
    std::int64_t reclaimableTokens_ = 0;
    std::size_t allocations_ = 0;
    int blockSize_ = 16;
    /** Bumped by reset(); holds stamped with an older one are void. */
    std::uint32_t generation_ = 0;
    std::uint64_t useTick_ = 0;
    std::unordered_map<std::uint64_t, SharedPrefix> prefixes_;
    PrefixCacheStats stats_;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_BLOCK_MANAGER_H_
