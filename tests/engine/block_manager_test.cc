#include "engine/block_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "engine/request_pool.h"

namespace splitwise::engine {
namespace {

TEST(BlockManagerTest, CapacityRoundsDownToBlocks)
{
    BlockManager bm(100, 16);
    EXPECT_EQ(bm.totalBlocks(), 6);
    EXPECT_EQ(bm.tokenCapacity(), 96);
}

TEST(BlockManagerTest, BlocksForRoundsUp)
{
    BlockManager bm(1600, 16);
    EXPECT_EQ(bm.blocksFor(0), 0);
    EXPECT_EQ(bm.blocksFor(1), 1);
    EXPECT_EQ(bm.blocksFor(16), 1);
    EXPECT_EQ(bm.blocksFor(17), 2);
}

TEST(BlockManagerTest, AllocateAndRelease)
{
    BlockManager bm(1600, 16);
    LiveRequest r1;
    EXPECT_TRUE(bm.allocate(r1, 100));
    EXPECT_TRUE(bm.holds(r1));
    EXPECT_EQ(bm.holdOf(r1)->tokens, 100);
    EXPECT_EQ(bm.freeBlocks(), 100 - 7);
    EXPECT_EQ(bm.usedTokens(), 100);
    bm.release(r1);
    EXPECT_FALSE(bm.holds(r1));
    EXPECT_EQ(bm.holdOf(r1), nullptr);
    EXPECT_EQ(bm.freeBlocks(), 100);
    EXPECT_EQ(bm.usedTokens(), 0);
}

TEST(BlockManagerTest, DoubleAllocateFails)
{
    BlockManager bm(1600, 16);
    LiveRequest r1;
    EXPECT_TRUE(bm.allocate(r1, 10));
    EXPECT_FALSE(bm.allocate(r1, 10));
    EXPECT_EQ(bm.residents(), 1u);
}

TEST(BlockManagerTest, AllocateFailsWhenFull)
{
    BlockManager bm(160, 16);
    LiveRequest r1, r2, r3;
    EXPECT_TRUE(bm.allocate(r1, 100));
    EXPECT_FALSE(bm.allocate(r2, 100));
    // Failed allocation changed nothing; the 3 remaining blocks
    // (48 tokens) are still allocatable.
    EXPECT_FALSE(bm.holds(r2));
    EXPECT_EQ(bm.holdOf(r2), nullptr);
    EXPECT_TRUE(bm.allocate(r3, 48));
}

TEST(BlockManagerTest, CanAllocateMatchesAllocate)
{
    BlockManager bm(160, 16);
    EXPECT_TRUE(bm.canAllocate(160));
    EXPECT_FALSE(bm.canAllocate(161));
    LiveRequest r1;
    bm.allocate(r1, 100);
    EXPECT_TRUE(bm.canAllocate(48));
    EXPECT_FALSE(bm.canAllocate(49));
}

TEST(BlockManagerTest, ExtendGrowsWithinBlock)
{
    BlockManager bm(1600, 16);
    LiveRequest r1;
    bm.allocate(r1, 10);
    const auto before = bm.freeBlocks();
    // Growing within the same block allocates nothing new.
    EXPECT_TRUE(bm.extend(r1, 16));
    EXPECT_EQ(bm.freeBlocks(), before);
    // Crossing the boundary takes a block.
    EXPECT_TRUE(bm.extend(r1, 17));
    EXPECT_EQ(bm.freeBlocks(), before - 1);
}

TEST(BlockManagerTest, ExtendFailsWhenFullAndLeavesStateIntact)
{
    BlockManager bm(32, 16);
    LiveRequest r1, r2;
    bm.allocate(r1, 16);
    bm.allocate(r2, 16);
    EXPECT_FALSE(bm.extend(r1, 17));
    EXPECT_EQ(bm.holdOf(r1)->tokens, 16);
    bm.release(r2);
    EXPECT_TRUE(bm.extend(r1, 17));
}

TEST(BlockManagerTest, ExtendShrinkIsNoOpSuccess)
{
    BlockManager bm(1600, 16);
    LiveRequest r1;
    bm.allocate(r1, 100);
    EXPECT_TRUE(bm.extend(r1, 50));
    EXPECT_EQ(bm.holdOf(r1)->tokens, 100);
}

TEST(BlockManagerTest, ExtendUnknownIdFails)
{
    BlockManager bm(1600, 16);
    LiveRequest r9;
    EXPECT_FALSE(bm.extend(r9, 10));
}

TEST(BlockManagerTest, ReleaseUnknownIsNoOp)
{
    BlockManager bm(160, 16);
    LiveRequest r42;
    bm.release(r42);
    EXPECT_EQ(bm.freeBlocks(), 10);
}

TEST(BlockManagerTest, UtilizationTracksUse)
{
    BlockManager bm(160, 16);
    EXPECT_DOUBLE_EQ(bm.utilization(), 0.0);
    LiveRequest r1, r2;
    bm.allocate(r1, 80);
    EXPECT_DOUBLE_EQ(bm.utilization(), 0.5);
    bm.allocate(r2, 80);
    EXPECT_DOUBLE_EQ(bm.utilization(), 1.0);
}

TEST(BlockManagerTest, ResidentsCount)
{
    BlockManager bm(160, 16);
    LiveRequest r1, r2;
    bm.allocate(r1, 16);
    bm.allocate(r2, 16);
    EXPECT_EQ(bm.residents(), 2u);
    bm.release(r1);
    EXPECT_EQ(bm.residents(), 1u);
}

TEST(BlockManagerTest, ZeroTokenAllocationHoldsNothing)
{
    BlockManager bm(160, 16);
    LiveRequest r1;
    EXPECT_TRUE(bm.allocate(r1, 0));
    EXPECT_TRUE(bm.holds(r1));
    EXPECT_EQ(bm.freeBlocks(), 10);
}

TEST(BlockManagerTest, ManyRequestsInternalFragmentationBounded)
{
    BlockManager bm(16000, 16);
    // 100 requests of 17 tokens: 2 blocks each despite 17 < 32.
    std::vector<LiveRequest> requests(100);
    for (LiveRequest& req : requests)
        ASSERT_TRUE(bm.allocate(req, 17));
    EXPECT_EQ(bm.freeBlocks(), 1000 - 200);
    EXPECT_EQ(bm.usedTokens(), 1700);
}

TEST(BlockManagerTest, HoldLivesInTheRequestRow)
{
    BlockManager p(1600, 16);
    BlockManager t(1600, 16);
    LiveRequest req;
    ASSERT_TRUE(p.allocate(req, 100));
    ASSERT_TRUE(t.allocate(req, 101));
    // One record per machine; each manager finds only its own.
    EXPECT_EQ(p.holdOf(req)->tokens, 100);
    EXPECT_EQ(t.holdOf(req)->tokens, 101);
    EXPECT_NE(p.holdOf(req), t.holdOf(req));
    EXPECT_EQ(p.audit({&req}), "");
    EXPECT_EQ(t.audit({&req}), "");
    p.release(req);
    EXPECT_FALSE(p.holds(req));
    EXPECT_TRUE(t.holds(req));
    EXPECT_EQ(p.usedTokens(), 0);
    EXPECT_EQ(t.usedTokens(), 101);
}

TEST(BlockManagerTest, ResetVoidsEveryHoldWithoutVisitingIt)
{
    BlockManager bm(1600, 16);
    LiveRequest a, b;
    ASSERT_TRUE(bm.allocate(a, 100));
    ASSERT_TRUE(bm.storePrefix(7, 64));
    ASSERT_TRUE(bm.acquirePrefix(7, b));
    bm.reset();
    // The rows still carry their records, but none is live any more.
    EXPECT_EQ(a.kv[0].owner, &bm);
    EXPECT_FALSE(bm.holds(a));
    EXPECT_EQ(bm.holdOf(b), nullptr);
    EXPECT_EQ(bm.residents(), 0u);
    EXPECT_EQ(bm.audit({&a, &b}), "");
    // Releasing a voided hold is a no-op, and the request can hold
    // KV here again.
    bm.release(a);
    EXPECT_EQ(bm.usedTokens(), 0);
    ASSERT_TRUE(bm.allocate(a, 32));
    EXPECT_EQ(bm.residents(), 1u);
    EXPECT_EQ(bm.audit({&a, &b}), "");
}

TEST(BlockManagerTest, AuditCountsAnAllocationNoHolderClaims)
{
    BlockManager bm(1600, 16);
    LiveRequest held, leaked;
    ASSERT_TRUE(bm.allocate(held, 16));
    ASSERT_TRUE(bm.allocate(leaked, 16));
    EXPECT_EQ(bm.audit({&held, &leaked}), "");
    EXPECT_NE(bm.audit({&held}), "");
}

TEST(BlockManagerTest, RecycledPoolSlotStartsWithNoHold)
{
    BlockManager bm(1600, 16);
    RequestPool pool(4);
    LiveRequest* first = pool.acquire();
    ASSERT_TRUE(bm.allocate(*first, 100));
    pool.release(first);
    LiveRequest* second = pool.acquire();
    ASSERT_EQ(second, first);
    // The new occupant does not inherit the old one's KV: the row's
    // records were reset, and the manager still counts the leak.
    EXPECT_FALSE(bm.holds(*second));
    EXPECT_EQ(bm.holdOf(*second), nullptr);
    EXPECT_EQ(bm.residents(), 1u);
    EXPECT_NE(bm.audit({second}), "");
}

TEST(BlockManagerDeathTest, ThirdSimultaneousHoldPanics)
{
    BlockManager a(1600, 16);
    BlockManager b(1600, 16);
    BlockManager c(1600, 16);
    LiveRequest req;
    ASSERT_TRUE(a.allocate(req, 16));
    ASSERT_TRUE(b.allocate(req, 16));
    EXPECT_DEATH(c.allocate(req, 16), "third machine");
    // A voided hold frees its record for the next machine.
    a.reset();
    EXPECT_TRUE(c.allocate(req, 16));
}

TEST(BlockManagerDeathTest, RejectsBadConfig)
{
    EXPECT_THROW(BlockManager(100, 0), std::runtime_error);
    EXPECT_THROW(BlockManager(-1, 16), std::runtime_error);
}

}  // namespace
}  // namespace splitwise::engine
