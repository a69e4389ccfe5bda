#include "engine/block_manager.h"

#include <algorithm>

#include "sim/log.h"

namespace splitwise::engine {

BlockManager::BlockManager(std::int64_t capacity_tokens, int block_size_tokens)
    : blockSize_(block_size_tokens)
{
    if (block_size_tokens <= 0)
        sim::fatal("BlockManager: block size must be positive");
    if (capacity_tokens < 0)
        sim::fatal("BlockManager: negative capacity");
    totalBlocks_ = capacity_tokens / blockSize_;
}

std::int64_t
BlockManager::blocksFor(std::int64_t tokens) const
{
    return (tokens + blockSize_ - 1) / blockSize_;
}

bool
BlockManager::canAllocate(std::int64_t tokens) const
{
    return blocksFor(tokens) <= freeBlocks() + reclaimableBlocks_;
}

bool
BlockManager::reclaimFor(std::int64_t need_blocks)
{
    while (freeBlocks() < need_blocks) {
        // LRU victim among refcount-zero entries; key breaks ties
        // deterministically. O(entries) per eviction is fine at
        // cache sizes a machine can hold.
        auto victim = prefixes_.end();
        for (auto it = prefixes_.begin(); it != prefixes_.end(); ++it) {
            if (it->second.refcount != 0)
                continue;
            if (victim == prefixes_.end() ||
                it->second.lastUse < victim->second.lastUse ||
                (it->second.lastUse == victim->second.lastUse &&
                 it->first < victim->first)) {
                victim = it;
            }
        }
        if (victim == prefixes_.end())
            return false;
        usedBlocks_ -= victim->second.blocks;
        usedTokens_ -= victim->second.tokens;
        sharedBlocks_ -= victim->second.blocks;
        sharedTokens_ -= victim->second.tokens;
        reclaimableBlocks_ -= victim->second.blocks;
        reclaimableTokens_ -= victim->second.tokens;
        ++stats_.evictions;
        prefixes_.erase(victim);
    }
    return true;
}

KvHold*
BlockManager::find(LiveRequest& request) const
{
    for (KvHold& hold : request.kv) {
        if (live(hold))
            return &hold;
    }
    return nullptr;
}

const KvHold*
BlockManager::holdOf(const LiveRequest& request) const
{
    return find(const_cast<LiveRequest&>(request));
}

KvHold&
BlockManager::claim(LiveRequest& request) const
{
    for (KvHold& hold : request.kv) {
        if (hold.owner == nullptr || !hold.owner->live(hold)) {
            hold = KvHold{};
            hold.owner = this;
            hold.generation = generation_;
            return hold;
        }
    }
    sim::panic("BlockManager: request " + std::to_string(request.spec.id) +
               " would hold KV on a third machine");
}

bool
BlockManager::allocate(LiveRequest& request, std::int64_t tokens)
{
    if (tokens < 0)
        sim::panic("BlockManager::allocate with negative tokens");
    KvHold* hold = find(request);
    if (hold != nullptr && hold->allocated)
        return false;
    const std::int64_t pinned = hold != nullptr ? hold->prefixTokens : 0;
    const std::int64_t effective = std::max<std::int64_t>(0, tokens - pinned);
    const std::int64_t need = blocksFor(effective);
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    if (hold == nullptr)
        hold = &claim(request);
    hold->allocated = true;
    hold->tokens = effective;
    hold->blocks = need;
    usedBlocks_ += need;
    usedTokens_ += effective;
    ++allocations_;
    return true;
}

bool
BlockManager::extend(LiveRequest& request, std::int64_t new_total_tokens)
{
    KvHold* hold = find(request);
    if (hold == nullptr || !hold->allocated)
        return false;
    const std::int64_t effective = std::max<std::int64_t>(
        0, new_total_tokens - hold->prefixTokens);
    if (effective <= hold->tokens) {
        // Contexts only grow; a no-op extension is still a success.
        return true;
    }
    const std::int64_t need = blocksFor(effective) - hold->blocks;
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    usedTokens_ += effective - hold->tokens;
    hold->tokens = effective;
    hold->blocks += need;
    usedBlocks_ += need;
    return true;
}

void
BlockManager::release(LiveRequest& request)
{
    KvHold* hold = find(request);
    if (hold == nullptr)
        return;
    if (hold->allocated) {
        usedBlocks_ -= hold->blocks;
        usedTokens_ -= hold->tokens;
        --allocations_;
    }
    if (hold->prefixTokens > 0) {
        const auto entry = prefixes_.find(hold->prefixKey);
        if (entry == prefixes_.end())
            sim::panic("BlockManager::release: pin on evicted prefix");
        if (--entry->second.refcount == 0) {
            reclaimableBlocks_ += entry->second.blocks;
            reclaimableTokens_ += entry->second.tokens;
        }
    }
    *hold = KvHold{};
}

bool
BlockManager::holds(const LiveRequest& request) const
{
    const KvHold* hold = holdOf(request);
    return hold != nullptr && hold->allocated;
}

void
BlockManager::reset()
{
    prefixes_.clear();
    usedBlocks_ = 0;
    usedTokens_ = 0;
    sharedBlocks_ = 0;
    sharedTokens_ = 0;
    reclaimableBlocks_ = 0;
    reclaimableTokens_ = 0;
    allocations_ = 0;
    useTick_ = 0;
    ++generation_;
}

std::int64_t
BlockManager::lookupPrefix(std::uint64_t key)
{
    const auto it = prefixes_.find(key);
    if (it == prefixes_.end())
        return 0;
    touch(it->second);
    return it->second.tokens;
}

bool
BlockManager::storePrefix(std::uint64_t key, std::int64_t tokens)
{
    if (tokens <= 0)
        sim::panic("BlockManager::storePrefix with non-positive tokens");
    const auto it = prefixes_.find(key);
    if (it != prefixes_.end()) {
        SharedPrefix& entry = it->second;
        if (tokens <= entry.tokens) {
            touch(entry);
            return true;
        }
        const std::int64_t delta = blocksFor(tokens) - entry.blocks;
        // A refcount-zero entry must not be cannibalized to grow
        // itself, so it is temporarily pinned around the reclaim.
        ++entry.refcount;
        if (entry.refcount == 1) {
            reclaimableBlocks_ -= entry.blocks;
            reclaimableTokens_ -= entry.tokens;
        }
        const bool fits = delta <= freeBlocks() || reclaimFor(delta);
        if (--entry.refcount == 0) {
            reclaimableBlocks_ += entry.blocks;
            reclaimableTokens_ += entry.tokens;
        }
        if (!fits)
            return false;
        const std::int64_t token_delta = tokens - entry.tokens;
        entry.tokens = tokens;
        entry.blocks += delta;
        usedBlocks_ += delta;
        usedTokens_ += token_delta;
        sharedBlocks_ += delta;
        sharedTokens_ += token_delta;
        if (entry.refcount == 0) {
            reclaimableBlocks_ += delta;
            reclaimableTokens_ += token_delta;
        }
        touch(entry);
        ++stats_.stores;
        return true;
    }
    const std::int64_t need = blocksFor(tokens);
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    SharedPrefix entry;
    entry.tokens = tokens;
    entry.blocks = need;
    touch(entry);
    prefixes_.emplace(key, entry);
    usedBlocks_ += need;
    usedTokens_ += tokens;
    sharedBlocks_ += need;
    sharedTokens_ += tokens;
    reclaimableBlocks_ += need;
    reclaimableTokens_ += tokens;
    ++stats_.stores;
    return true;
}

bool
BlockManager::acquirePrefix(std::uint64_t key, LiveRequest& request)
{
    const auto it = prefixes_.find(key);
    KvHold* hold = find(request);
    if (it == prefixes_.end() || (hold != nullptr && hold->prefixTokens > 0)) {
        ++stats_.misses;
        return false;
    }
    SharedPrefix& entry = it->second;
    if (entry.refcount == 0) {
        reclaimableBlocks_ -= entry.blocks;
        reclaimableTokens_ -= entry.tokens;
    }
    ++entry.refcount;
    if (hold == nullptr)
        hold = &claim(request);
    hold->prefixKey = key;
    hold->prefixTokens = entry.tokens;
    touch(entry);
    ++stats_.hits;
    stats_.hitTokens += entry.tokens;
    return true;
}

std::int64_t
BlockManager::prefixRefcount(std::uint64_t key) const
{
    const auto it = prefixes_.find(key);
    return it == prefixes_.end() ? -1 : it->second.refcount;
}

std::string
BlockManager::audit(const std::vector<const LiveRequest*>& holders) const
{
    std::size_t allocations = 0;
    std::int64_t blocks = 0;
    std::int64_t tokens = 0;
    std::unordered_map<std::uint64_t, std::int64_t> pin_counts;
    for (const LiveRequest* request : holders) {
        const KvHold* hold = holdOf(*request);
        if (hold == nullptr)
            continue;
        const auto who = [&] {
            return "request " + std::to_string(request->spec.id);
        };
        if (hold->allocated) {
            if (hold->tokens < 0 || hold->blocks != blocksFor(hold->tokens)) {
                return who() + " holds " + std::to_string(hold->blocks) +
                       " blocks for " + std::to_string(hold->tokens) +
                       " tokens (expected " +
                       std::to_string(blocksFor(hold->tokens)) + ")";
            }
            ++allocations;
            blocks += hold->blocks;
            tokens += hold->tokens;
        }
        if (hold->prefixTokens > 0) {
            const auto entry = prefixes_.find(hold->prefixKey);
            if (entry == prefixes_.end()) {
                return who() + " pins evicted prefix " +
                       std::to_string(hold->prefixKey);
            }
            if (hold->prefixTokens > entry->second.tokens) {
                return who() + " pins " + std::to_string(hold->prefixTokens) +
                       " tokens of prefix " + std::to_string(hold->prefixKey) +
                       " holding " + std::to_string(entry->second.tokens);
            }
            ++pin_counts[hold->prefixKey];
        }
    }
    if (allocations != allocations_) {
        return "allocation count " + std::to_string(allocations_) + " != " +
               std::to_string(allocations) + " live holds";
    }
    std::int64_t shared_blocks = 0;
    std::int64_t shared_tokens = 0;
    std::int64_t reclaim_blocks = 0;
    std::int64_t reclaim_tokens = 0;
    for (const auto& [key, entry] : prefixes_) {
        if (entry.tokens <= 0 || entry.blocks != blocksFor(entry.tokens)) {
            return "prefix " + std::to_string(key) + " holds " +
                   std::to_string(entry.blocks) + " blocks for " +
                   std::to_string(entry.tokens) + " tokens";
        }
        const auto counted = pin_counts.find(key);
        const std::int64_t pinned =
            counted == pin_counts.end() ? 0 : counted->second;
        if (entry.refcount != pinned) {
            return "prefix " + std::to_string(key) + " refcount " +
                   std::to_string(entry.refcount) + " != " +
                   std::to_string(pinned) + " live pins";
        }
        shared_blocks += entry.blocks;
        shared_tokens += entry.tokens;
        if (entry.refcount == 0) {
            reclaim_blocks += entry.blocks;
            reclaim_tokens += entry.tokens;
        }
    }
    if (shared_blocks != sharedBlocks_ || shared_tokens != sharedTokens_) {
        return "shared aggregates (" + std::to_string(sharedBlocks_) + "," +
               std::to_string(sharedTokens_) + ") != entry sums (" +
               std::to_string(shared_blocks) + "," +
               std::to_string(shared_tokens) + ")";
    }
    if (reclaim_blocks != reclaimableBlocks_ ||
        reclaim_tokens != reclaimableTokens_) {
        return "reclaimable aggregates (" +
               std::to_string(reclaimableBlocks_) + "," +
               std::to_string(reclaimableTokens_) + ") != entry sums (" +
               std::to_string(reclaim_blocks) + "," +
               std::to_string(reclaim_tokens) + ")";
    }
    if (blocks + shared_blocks != usedBlocks_) {
        return "used-block aggregate " + std::to_string(usedBlocks_) +
               " != hold sum " + std::to_string(blocks + shared_blocks);
    }
    if (tokens + shared_tokens != usedTokens_) {
        return "used-token aggregate " + std::to_string(usedTokens_) +
               " != hold sum " + std::to_string(tokens + shared_tokens);
    }
    if (usedBlocks_ < 0 || usedBlocks_ > totalBlocks_) {
        return "used blocks " + std::to_string(usedBlocks_) +
               " outside [0, " + std::to_string(totalBlocks_) + "]";
    }
    return "";
}

double
BlockManager::utilization() const
{
    if (totalBlocks_ == 0)
        return 0.0;
    return static_cast<double>(usedBlocks_) / static_cast<double>(totalBlocks_);
}

}  // namespace splitwise::engine
