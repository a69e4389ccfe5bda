#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/block_manager.h"
#include "sim/rng.h"

namespace splitwise {
namespace {

// ---------------------------------------------------------------
// Shared-prefix tier properties under randomized session
// interleavings, checked against a reference model. Every assertion
// message carries (seed, step, op), so a failure is immediately
// replayable and bisectable by shrinking the step count: the op
// sequence is a pure function of the seed.
// ---------------------------------------------------------------

struct ReferenceEntry {
    std::int64_t tokens = 0;
};

struct ReferencePin {
    std::uint64_t key = 0;
    /** Entry size at acquire time (the hit-token contribution). */
    std::int64_t tokens = 0;
};

TEST(PrefixCacheProperty, RandomSessionInterleavingsMatchReferenceModel)
{
    const std::int64_t capacity = 4096;
    const int block = 16;

    for (std::uint64_t seed : {11ull, 222ull, 3333ull, 44444ull, 555555ull}) {
        engine::BlockManager bm(capacity, block);
        sim::Rng rng(seed);
        // Request ids 1..24 index their rows; the audit sees them all.
        std::vector<engine::LiveRequest> requests(25);
        std::vector<const engine::LiveRequest*> holders;
        for (const engine::LiveRequest& req : requests)
            holders.push_back(&req);

        std::map<std::uint64_t, ReferenceEntry> entries;   // session key
        std::map<std::uint64_t, ReferencePin> pins;        // request id
        std::map<std::uint64_t, std::int64_t> allocs;      // id -> eff tokens

        std::uint64_t expect_hits = 0;
        std::uint64_t expect_misses = 0;
        std::uint64_t expect_evictions = 0;
        std::uint64_t expect_stores = 0;
        std::int64_t expect_hit_tokens = 0;

        for (int step = 0; step < 4000; ++step) {
            const int op = static_cast<int>(rng.uniformInt(0, 99));
            const std::uint64_t key =
                static_cast<std::uint64_t>(rng.uniformInt(1, 8));
            const std::uint64_t id =
                static_cast<std::uint64_t>(rng.uniformInt(1, 24));
            engine::LiveRequest& req = requests[id];
            const std::string where = "seed " + std::to_string(seed) +
                                      " step " + std::to_string(step) +
                                      " op " + std::to_string(op);

            if (op < 25) {
                // Session turn completes: publish/grow its prefix.
                const std::int64_t tokens = rng.uniformInt(1, 600);
                const auto it = entries.find(key);
                const std::int64_t had =
                    it == entries.end() ? 0 : it->second.tokens;
                if (bm.storePrefix(key, tokens)) {
                    // Entries never shrink; only inserts and genuine
                    // growths count as stores.
                    if (tokens > had) {
                        entries[key].tokens = tokens;
                        ++expect_stores;
                    }
                } else {
                    ASSERT_GT(tokens, had) << where
                        << ": in-place store may never fail";
                }
            } else if (op < 50) {
                // Follow-up turn routed to this machine: pin the
                // session prefix. The acquire-time size is the hit
                // contribution even if the entry grows later.
                const bool cached = entries.count(key) > 0;
                const bool free_id = pins.count(id) == 0;
                const bool ok = bm.acquirePrefix(key, req);
                ASSERT_EQ(ok, cached && free_id) << where;
                if (ok) {
                    pins[id] = {key, entries[key].tokens};
                    ++expect_hits;
                    expect_hit_tokens += entries[key].tokens;
                } else {
                    ++expect_misses;
                }
            } else if (op < 70) {
                // Admission: allocate the full context; the manager
                // deducts the pinned prefix internally.
                const std::int64_t tokens = rng.uniformInt(0, 700);
                const auto pin = pins.find(id);
                const std::int64_t pinned =
                    pin == pins.end() ? 0 : pin->second.tokens;
                if (bm.allocate(req, tokens)) {
                    ASSERT_EQ(allocs.count(id), 0u) << where;
                    allocs[id] = std::max<std::int64_t>(0, tokens - pinned);
                } else {
                    ASSERT_TRUE(allocs.count(id) > 0 ||
                                !bm.canAllocate(std::max<std::int64_t>(
                                    0, tokens - pinned)))
                        << where << ": allocate failed with room to spare";
                }
            } else if (op < 80) {
                // Decode growth.
                const std::int64_t grow = rng.uniformInt(0, 64);
                const auto it = allocs.find(id);
                const auto pin = pins.find(id);
                const std::int64_t pinned =
                    pin == pins.end() ? 0 : pin->second.tokens;
                if (it == allocs.end()) {
                    ASSERT_FALSE(bm.extend(req, grow)) << where;
                } else {
                    const std::int64_t total =
                        pinned + it->second + grow;
                    if (bm.extend(req, total))
                        it->second += grow;
                }
            } else if (op < 96) {
                // Request done (or preempted): drop blocks and pin.
                // Double releases must be harmless no-ops.
                bm.release(req);
                allocs.erase(id);
                pins.erase(id);
                if (rng.bernoulli(0.2))
                    bm.release(req);
            } else {
                // Machine crash: KV and cache gone, counters survive.
                bm.reset();
                entries.clear();
                pins.clear();
                allocs.clear();
            }

            // --- Invariants after every operation ---
            ASSERT_EQ(bm.audit(holders), "") << where;

            // Ref-count conservation: every entry's refcount equals
            // the live pins pointing at it, and pinned entries are
            // never evicted.
            std::map<std::uint64_t, std::int64_t> pin_counts;
            for (const auto& [rid, pin] : pins)
                ++pin_counts[pin.key];
            for (const auto& [k, count] : pin_counts)
                ASSERT_EQ(bm.prefixRefcount(k), count) << where;

            // Evict-only-at-refcount-zero: an entry the reference
            // still knows but the manager dropped must have had no
            // pins; fold it into the expected eviction count.
            for (auto it = entries.begin(); it != entries.end();) {
                if (bm.prefixRefcount(it->first) >= 0) {
                    ++it;
                    continue;
                }
                ASSERT_EQ(pin_counts.count(it->first), 0u)
                    << where << ": pinned prefix " << it->first
                    << " was evicted";
                ++expect_evictions;
                it = entries.erase(it);
            }
            ASSERT_EQ(bm.sharedPrefixCount(), entries.size()) << where;

            // The pins in the request rows round-trip exactly.
            for (std::uint64_t rid = 1; rid < requests.size(); ++rid) {
                const engine::KvHold* hold = bm.holdOf(requests[rid]);
                const auto it = pins.find(rid);
                if (it == pins.end()) {
                    ASSERT_TRUE(hold == nullptr || hold->prefixTokens == 0)
                        << where;
                    continue;
                }
                ASSERT_NE(hold, nullptr) << where;
                ASSERT_EQ(it->second.key, hold->prefixKey) << where;
                ASSERT_EQ(it->second.tokens, hold->prefixTokens) << where;
            }

            // Token conservation across private + shared tiers (a
            // double-free would undercount, a leak would overcount).
            std::int64_t private_tokens = 0;
            for (const auto& [rid, tokens] : allocs)
                private_tokens += tokens;
            std::int64_t shared_tokens = 0;
            for (const auto& [k, entry] : entries)
                shared_tokens += entry.tokens;
            ASSERT_EQ(bm.usedTokens(), private_tokens + shared_tokens)
                << where;
            ASSERT_EQ(bm.residents(), allocs.size()) << where;
            ASSERT_GE(bm.committedTokens(), 0) << where;
            ASSERT_LE(bm.committedTokens(), bm.usedTokens()) << where;

            // Hit/miss/evict/store accounting, exact at every step.
            const auto& stats = bm.prefixStats();
            ASSERT_EQ(stats.hits, expect_hits) << where;
            ASSERT_EQ(stats.misses, expect_misses) << where;
            ASSERT_EQ(stats.evictions, expect_evictions) << where;
            ASSERT_EQ(stats.stores, expect_stores) << where;
            ASSERT_EQ(stats.hitTokens, expect_hit_tokens) << where;
        }
    }
}

// ---------------------------------------------------------------
// Directed edge cases the randomized walk covers only by chance.
// ---------------------------------------------------------------

TEST(PrefixCacheProperty, DoubleAcquireIsAMissAndDoubleReleaseIsANoop)
{
    engine::BlockManager bm(1024, 16);
    engine::LiveRequest r1;
    ASSERT_TRUE(bm.storePrefix(7, 100));
    ASSERT_TRUE(bm.acquirePrefix(7, r1));
    // A request holds at most one pin; the second acquire is a miss
    // and must not bump the refcount.
    ASSERT_FALSE(bm.acquirePrefix(7, r1));
    ASSERT_EQ(bm.prefixRefcount(7), 1);
    ASSERT_EQ(bm.prefixStats().hits, 1u);
    ASSERT_EQ(bm.prefixStats().misses, 1u);

    bm.release(r1);
    ASSERT_EQ(bm.prefixRefcount(7), 0);
    bm.release(r1);  // double free: no-op, refcount stays at zero
    ASSERT_EQ(bm.prefixRefcount(7), 0);
    ASSERT_EQ(bm.audit({&r1}), "");
}

TEST(PrefixCacheProperty, PinnedPrefixSurvivesPressureUnpinnedIsEvictedLru)
{
    // 16 blocks of 16 tokens. Two cached prefixes of 4 blocks each;
    // one pinned, one idle.
    engine::BlockManager bm(256, 16);
    engine::LiveRequest r10, r20, r21;
    ASSERT_TRUE(bm.storePrefix(1, 64));
    ASSERT_TRUE(bm.storePrefix(2, 64));
    ASSERT_TRUE(bm.acquirePrefix(1, r10));

    // 12 free blocks on paper, 8 truly free. A 160-token allocation
    // needs 10 blocks: the idle prefix must be evicted, the pinned
    // one must survive.
    ASSERT_TRUE(bm.allocate(r20, 160));
    ASSERT_EQ(bm.prefixRefcount(2), -1);
    ASSERT_EQ(bm.prefixRefcount(1), 1);
    ASSERT_EQ(bm.prefixStats().evictions, 1u);

    // Only 2 blocks remain and the surviving prefix is pinned, so a
    // 3-block allocation must fail rather than evict it.
    ASSERT_FALSE(bm.allocate(r21, 48));
    ASSERT_EQ(bm.prefixRefcount(1), 1);

    // Dropping the pin makes the entry reclaimable; the same
    // allocation now succeeds by evicting it.
    bm.release(r10);
    ASSERT_TRUE(bm.allocate(r21, 48));
    ASSERT_EQ(bm.prefixRefcount(1), -1);
    ASSERT_EQ(bm.prefixStats().evictions, 2u);
    ASSERT_EQ(bm.audit({&r10, &r20, &r21}), "");
}

TEST(PrefixCacheProperty, HitTokensPriceTheAcquireTimeSize)
{
    engine::BlockManager bm(2048, 16);
    engine::LiveRequest r1, r2;
    ASSERT_TRUE(bm.storePrefix(5, 200));
    ASSERT_TRUE(bm.acquirePrefix(5, r1));
    ASSERT_EQ(bm.prefixStats().hitTokens, 200);

    // The entry grows while pinned; the existing pin keeps pricing
    // its acquire-time 200 tokens, a later pin prices 300.
    ASSERT_TRUE(bm.storePrefix(5, 300));
    ASSERT_EQ(bm.holdOf(r1)->prefixTokens, 200);
    ASSERT_TRUE(bm.acquirePrefix(5, r2));
    ASSERT_EQ(bm.prefixStats().hitTokens, 500);

    // allocate() deducts the pin: a 260-token context on a 200-token
    // pin stores only the 60-token suffix privately.
    ASSERT_TRUE(bm.allocate(r1, 260));
    ASSERT_EQ(bm.holdOf(r1)->tokens, 60);
    ASSERT_EQ(bm.audit({&r1, &r2}), "");
}

}  // namespace
}  // namespace splitwise
