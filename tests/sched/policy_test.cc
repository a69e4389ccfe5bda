/**
 * @file
 * Unit tests of the session prefix cache's directory: routing
 * preference, hit tagging, and every way a session is forgotten or
 * missed, against real machines' block managers (no simulation run).
 */

#include "sched/policy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/machine.h"
#include "engine/request.h"
#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "sim/simulator.h"

namespace splitwise::sched {
namespace {

constexpr std::int64_t kCap = 4096;

class PrefixCacheTest : public ::testing::Test {
  protected:
    PrefixCacheTest()
        : perf_(model::llama2_70b(), hw::dgxH100()),
          memory_(model::llama2_70b(), hw::dgxH100())
    {
        std::vector<engine::Machine*> machines;
        for (int id = 0; id < 2; ++id) {
            machines_.push_back(std::make_unique<engine::Machine>(
                sim_, id, hw::dgxH100(), perf_, memory_, engine::MlsConfig{},
                engine::Machine::Callbacks{}));
            machines.push_back(machines_.back().get());
        }
        PolicyConfig config;
        config.kind = PolicyKind::kPrefixCache;
        config.maxContextTokens = kCap;
        cache_ = std::make_unique<PrefixCache>(config, machines);
    }

    engine::Machine& machine(int id) { return *machines_[id]; }

    engine::LiveRequest
    turn(std::uint64_t session, std::int64_t prompt)
    {
        engine::LiveRequest request;
        request.spec.id = nextId_++;
        request.spec.promptTokens = prompt;
        request.spec.outputTokens = 8;
        request.spec.session = session;
        return request;
    }

    /** Complete @p session's prefill of @p prompt tokens on @p id. */
    void
    prefill(std::uint64_t session, std::int64_t prompt, int id)
    {
        engine::LiveRequest request = turn(session, prompt);
        cache_->onPrefillComplete(machine(id), request);
    }

    sim::Simulator sim_;
    model::AnalyticalPerfModel perf_;
    model::MemoryModel memory_;
    std::vector<std::unique_ptr<engine::Machine>> machines_;
    std::unique_ptr<PrefixCache> cache_;
    std::uint64_t nextId_ = 1;
};

TEST(PolicyKindTest, NamesRoundTrip)
{
    for (const PolicyKind kind :
         {PolicyKind::kDefault, PolicyKind::kPrefixCache}) {
        PolicyKind parsed = PolicyKind::kDefault;
        ASSERT_TRUE(parsePolicyKind(policyKindName(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PolicyKind untouched = PolicyKind::kPrefixCache;
    EXPECT_FALSE(parsePolicyKind("bogus", &untouched));
    EXPECT_EQ(untouched, PolicyKind::kPrefixCache);
    EXPECT_EQ(policyNames(), "default, prefix");
}

TEST_F(PrefixCacheTest, StandaloneRequestGivesNoPreference)
{
    engine::LiveRequest request = turn(0, 1000);
    request.cachedPrefixTokens = 123;
    EXPECT_EQ(cache_->prepareRoute(request), -1);
    EXPECT_EQ(request.cachedPrefixTokens, 0);
    EXPECT_EQ(cache_->stats().directoryMisses, 0u);
}

TEST_F(PrefixCacheTest, UnknownSessionIsADirectoryMiss)
{
    engine::LiveRequest request = turn(7, 1000);
    EXPECT_EQ(cache_->prepareRoute(request), -1);
    EXPECT_EQ(request.cachedPrefixTokens, 0);
    EXPECT_EQ(cache_->stats().directoryMisses, 1u);
}

TEST_F(PrefixCacheTest, HitTagsPrefixAndNamesTheMachine)
{
    prefill(7, 1000, 1);
    EXPECT_EQ(cache_->stats().directorySize, 1u);

    engine::LiveRequest next = turn(7, 1500);
    EXPECT_EQ(cache_->prepareRoute(next), 1);
    EXPECT_EQ(next.cachedPrefixTokens, 1000);
    EXPECT_EQ(cache_->stats().directoryMisses, 0u);

    cache_->noteAffinityRoute();
    EXPECT_EQ(cache_->stats().affinityRoutes, 1u);
}

TEST_F(PrefixCacheTest, EvictedPrefixIsForgotten)
{
    prefill(7, 1000, 0);
    // A request that needs the whole pool evicts the refcount-zero
    // prefix behind the directory's back.
    engine::BlockManager& blocks = machine(0).mls().blocks();
    engine::LiveRequest filler;
    ASSERT_TRUE(blocks.allocate(filler, blocks.tokenCapacity()));
    ASSERT_EQ(blocks.sharedPrefixCount(), 0u);

    engine::LiveRequest next = turn(7, 1500);
    EXPECT_EQ(cache_->prepareRoute(next), -1);
    EXPECT_EQ(next.cachedPrefixTokens, 0);
    EXPECT_EQ(cache_->stats().directoryMisses, 1u);
    EXPECT_EQ(cache_->stats().directorySize, 0u);
}

TEST_F(PrefixCacheTest, PromptAtTheContextCapIsAMiss)
{
    prefill(7, 1000, 0);
    // At the cap the window may have slid: the stored context is no
    // longer known to be a prefix.
    engine::LiveRequest capped = turn(7, kCap);
    EXPECT_EQ(cache_->prepareRoute(capped), -1);
    EXPECT_EQ(capped.cachedPrefixTokens, 0);
    EXPECT_EQ(cache_->stats().directoryMisses, 1u);

    // A capped context is never stored either.
    prefill(8, kCap, 1);
    EXPECT_EQ(cache_->stats().directorySize, 1u);
}

TEST_F(PrefixCacheTest, MachineFailureDropsOnlyItsSessions)
{
    prefill(1, 1000, 0);
    prefill(2, 1000, 0);
    prefill(3, 1000, 1);
    EXPECT_EQ(cache_->stats().directorySize, 3u);

    cache_->onMachineFailed(0);
    EXPECT_EQ(cache_->stats().directorySize, 1u);

    engine::LiveRequest lost = turn(1, 1500);
    EXPECT_EQ(cache_->prepareRoute(lost), -1);
    EXPECT_EQ(cache_->stats().directoryMisses, 1u);

    engine::LiveRequest kept = turn(3, 1500);
    EXPECT_EQ(cache_->prepareRoute(kept), 1);
    EXPECT_EQ(kept.cachedPrefixTokens, 1000);
}

}  // namespace
}  // namespace splitwise::sched
