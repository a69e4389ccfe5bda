#include "engine/mls.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace splitwise::engine {
namespace {

class MlsTest : public ::testing::Test {
  protected:
    LiveRequest*
    makeRequest(std::int64_t prompt, std::int64_t output)
    {
        auto req = std::make_unique<LiveRequest>();
        req->spec = {nextId_++, 0, prompt, output};
        requests_.push_back(std::move(req));
        return requests_.back().get();
    }

    /** Simulate a resident decode with its KV already allocated. */
    LiveRequest*
    makeResident(Mls& mls, std::int64_t prompt, std::int64_t generated,
                 std::int64_t output)
    {
        LiveRequest* req = makeRequest(prompt, output);
        req->generated = generated;
        EXPECT_TRUE(mls.blocks().allocate(*req, req->contextTokens() + 1));
        mls.addResident(req);
        return req;
    }

    std::vector<std::unique_ptr<LiveRequest>> requests_;
    std::uint64_t nextId_ = 0;
};

MlsConfig
config(BatchPolicy policy, std::int64_t budget = 2048, int max_batch = 256,
       int max_preemptions = 4)
{
    MlsConfig c;
    c.policy = policy;
    c.promptTokenBudget = budget;
    c.maxBatchSize = max_batch;
    c.maxPreemptions = max_preemptions;
    return c;
}

MlsConfig
chunkedConfig(std::int64_t chunk)
{
    MlsConfig c = config(BatchPolicy::kMixed);
    c.promptChunkTokens = chunk;
    return c;
}

// --- Mixed policy (the paper's default, Fig. 2c) ---

TEST_F(MlsTest, MixedBatchesPromptsAndDecodesTogether)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    mls.enqueuePrompt(makeRequest(1000, 10));
    makeResident(mls, 500, 2, 10);
    const BatchPlan plan = mls.nextBatch();
    EXPECT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(plan.decodes.size(), 1u);
    // Default mixed batching runs the whole prompt with the decodes
    // (Fig. 2c): the co-scheduled token phase sees a long iteration.
    EXPECT_EQ(plan.promptTokens, 1000);
    EXPECT_EQ(plan.prompts[0]->chunkTokens, 1000);
}

TEST_F(MlsTest, ChunkedPrefillBoundsMixedPromptSlice)
{
    Mls mls(chunkedConfig(512), 100000);
    mls.enqueuePrompt(makeRequest(1000, 10));
    makeResident(mls, 500, 2, 10);
    const BatchPlan plan = mls.nextBatch();
    ASSERT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(plan.promptTokens, 512);
}

TEST_F(MlsTest, ChunkedPrefillSpreadsPromptAcrossIterations)
{
    Mls mls(chunkedConfig(512), 100000);
    LiveRequest* prompt = makeRequest(1200, 10);
    mls.enqueuePrompt(prompt);
    makeResident(mls, 500, 2, 10);

    std::int64_t total = 0;
    for (int iter = 0; iter < 3; ++iter) {
        const BatchPlan plan = mls.nextBatch();
        ASSERT_EQ(plan.prompts.size(), 1u);
        ASSERT_EQ(plan.prompts[0], prompt);
        // The machine advances progress at iteration completion.
        prompt->promptProcessed += prompt->chunkTokens;
        total += prompt->chunkTokens;
        prompt->chunkTokens = 0;
    }
    EXPECT_EQ(total, 1200);
    // Chunks were 512, 512, 176.
    EXPECT_EQ(prompt->promptProcessed, 1200);
    // The request left the queue with its final chunk.
    EXPECT_EQ(mls.pendingPrompts(), 0u);
}

TEST_F(MlsTest, NoChunkingWithoutResidents)
{
    Mls mls(chunkedConfig(512), 100000);
    mls.enqueuePrompt(makeRequest(1200, 10));
    const BatchPlan plan = mls.nextBatch();
    ASSERT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(plan.promptTokens, 1200);
}

TEST_F(MlsTest, PromptBudgetLimitsBatchedPromptTokens)
{
    Mls mls(config(BatchPolicy::kMixed, 2048), 100000);
    mls.enqueuePrompt(makeRequest(1000, 5));
    mls.enqueuePrompt(makeRequest(1000, 5));
    mls.enqueuePrompt(makeRequest(1000, 5));
    const BatchPlan plan = mls.nextBatch();
    // 1000 + 1000 fits; the third would exceed 2048.
    EXPECT_EQ(plan.prompts.size(), 2u);
    EXPECT_EQ(plan.promptTokens, 2000);
    EXPECT_EQ(mls.pendingPrompts(), 1u);
}

TEST_F(MlsTest, OversizedPromptRunsAlone)
{
    Mls mls(config(BatchPolicy::kMixed, 2048), 100000);
    mls.enqueuePrompt(makeRequest(5000, 5));
    mls.enqueuePrompt(makeRequest(100, 5));
    const BatchPlan plan = mls.nextBatch();
    ASSERT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(plan.promptTokens, 5000);
}

TEST_F(MlsTest, FcfsOrderPreserved)
{
    Mls mls(config(BatchPolicy::kMixed, 4096), 100000);
    LiveRequest* first = makeRequest(1000, 5);
    LiveRequest* second = makeRequest(1000, 5);
    mls.enqueuePrompt(first);
    mls.enqueuePrompt(second);
    const BatchPlan plan = mls.nextBatch();
    ASSERT_EQ(plan.prompts.size(), 2u);
    EXPECT_EQ(plan.prompts[0], first);
    EXPECT_EQ(plan.prompts[1], second);
}

TEST_F(MlsTest, PromptAllocationReservesKv)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    LiveRequest* req = makeRequest(1000, 5);
    mls.enqueuePrompt(req);
    mls.nextBatch();
    EXPECT_TRUE(mls.blocks().holds(*req));
    EXPECT_GE(mls.blocks().holdOf(*req)->tokens, 1001);
}

TEST_F(MlsTest, MemoryFullBlocksPromptAdmission)
{
    // Capacity for one 1000-token prompt but not two.
    Mls mls(config(BatchPolicy::kMixed), 1600);
    mls.enqueuePrompt(makeRequest(1000, 5));
    mls.enqueuePrompt(makeRequest(1000, 5));
    const BatchPlan plan = mls.nextBatch();
    EXPECT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(mls.pendingPrompts(), 1u);
}

TEST_F(MlsTest, DecodeExtensionReservesNextToken)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    LiveRequest* req = makeResident(mls, 100, 1, 10);
    mls.nextBatch();
    EXPECT_GE(mls.blocks().holdOf(*req)->tokens, req->contextTokens() + 1);
}

TEST_F(MlsTest, MaxBatchSizeCapsDecodes)
{
    Mls mls(config(BatchPolicy::kMixed, 2048, 4), 1000000);
    for (int i = 0; i < 8; ++i)
        makeResident(mls, 100, 1, 10);
    const BatchPlan plan = mls.nextBatch();
    EXPECT_EQ(plan.decodes.size(), 4u);
}

TEST_F(MlsTest, EmptyWhenNoWork)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    EXPECT_TRUE(mls.nextBatch().empty());
    EXPECT_FALSE(mls.hasWork());
}

TEST_F(MlsTest, PreemptsNewestResidentWhenWedged)
{
    // 201 blocks total; a filler reservation (as left by an inbound
    // transfer) plus two residents leave two free blocks, so the
    // decodes wedge within a few dozen generated tokens while the
    // queued prompt can never allocate.
    Mls mls(config(BatchPolicy::kMixed), 3216);
    LiveRequest* resident = makeResident(mls, 1000, 1, 60);
    // Fill every remaining block (as a reserved inbound transfer
    // would), so the decode wedges at its next block boundary.
    LiveRequest filler;
    ASSERT_TRUE(mls.blocks().allocate(filler, mls.blocks().freeTokens()));
    mls.enqueuePrompt(makeRequest(1500, 5));

    BatchPlan plan = mls.nextBatch();
    int guard = 0;
    while (!plan.empty() && plan.prompts.empty() && ++guard < 100) {
        for (auto* r : plan.decodes)
            ++r->generated;
        plan = mls.nextBatch();
    }
    // The decode wedged and was preempted; with the filler still
    // holding all other memory even the recompute cannot start, so
    // the machine idles awaiting an external release.
    ASSERT_TRUE(plan.empty());
    EXPECT_GE(mls.preemptionCount(), 1u);
    EXPECT_EQ(resident->phase, RequestPhase::kPromptQueued);
    EXPECT_GE(resident->preemptions, 1);
    EXPECT_TRUE(mls.hasWork());

    // The filler releasing (transfer completed) unwedges the queue:
    // the victim recomputes its whole accumulated context, FCFS.
    mls.blocks().release(filler);
    plan = mls.nextBatch();
    ASSERT_FALSE(plan.prompts.empty());
    EXPECT_EQ(plan.prompts[0], resident);
    EXPECT_EQ(plan.promptTokens, resident->contextTokens());
}

TEST_F(MlsTest, PreemptedRequestRecomputesWholeContext)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    LiveRequest* req = makeRequest(100, 10);
    req->generated = 5;
    mls.enqueuePrompt(req);
    const BatchPlan plan = mls.nextBatch();
    ASSERT_EQ(plan.prompts.size(), 1u);
    EXPECT_EQ(plan.promptTokens, 105);
}

TEST_F(MlsTest, FinishReleasesMemoryAndResidency)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    LiveRequest* req = makeResident(mls, 100, 1, 10);
    const auto free_before = mls.blocks().freeBlocks();
    mls.finish(req);
    EXPECT_EQ(mls.residentCount(), 0u);
    EXPECT_GT(mls.blocks().freeBlocks(), free_before);
}

TEST_F(MlsTest, PendingPromptTokensCountsRecomputeWork)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    mls.enqueuePrompt(makeRequest(100, 5));
    LiveRequest* recompute = makeRequest(200, 10);
    recompute->generated = 50;
    mls.enqueuePrompt(recompute);
    EXPECT_EQ(mls.pendingPromptTokens(), 100 + 250);
}

// --- Continuous batching (Fig. 2b) ---

TEST_F(MlsTest, ContinuousRunsPurePromptOrPureTokenBatches)
{
    Mls mls(config(BatchPolicy::kContinuous), 100000);
    mls.enqueuePrompt(makeRequest(1000, 10));
    makeResident(mls, 500, 2, 10);
    const BatchPlan plan = mls.nextBatch();
    EXPECT_EQ(plan.prompts.size(), 1u);
    EXPECT_TRUE(plan.decodes.empty());
}

TEST_F(MlsTest, ContinuousPromptPreemptsTokens)
{
    Mls mls(config(BatchPolicy::kContinuous), 100000);
    LiveRequest* resident = makeResident(mls, 500, 2, 10);
    mls.enqueuePrompt(makeRequest(1000, 10));
    mls.nextBatch();
    EXPECT_EQ(resident->preemptions, 1);
    EXPECT_EQ(resident->starvedIterations, 1);
}

TEST_F(MlsTest, ContinuousRunsTokensWhenNoPrompts)
{
    Mls mls(config(BatchPolicy::kContinuous), 100000);
    makeResident(mls, 500, 2, 10);
    const BatchPlan plan = mls.nextBatch();
    EXPECT_TRUE(plan.prompts.empty());
    EXPECT_EQ(plan.decodes.size(), 1u);
}

TEST_F(MlsTest, ContinuousAgeingPreventsStarvation)
{
    Mls mls(config(BatchPolicy::kContinuous, 2048, 256,
                   /*max_preemptions=*/2),
            1000000);
    LiveRequest* resident = makeResident(mls, 500, 2, 50);
    // Endless stream of prompts tries to starve the decode.
    for (int i = 0; i < 10; ++i)
        mls.enqueuePrompt(makeRequest(1000, 5));
    int token_batches = 0;
    for (int iter = 0; iter < 6; ++iter) {
        const BatchPlan plan = mls.nextBatch();
        if (!plan.decodes.empty()) {
            ++token_batches;
            break;
        }
    }
    EXPECT_EQ(token_batches, 1);
    EXPECT_EQ(resident->starvedIterations, 0);
}

// --- Request-level batching (Fig. 2a) ---

TEST_F(MlsTest, RequestLevelFormsBatchThenDrains)
{
    Mls mls(config(BatchPolicy::kRequestLevel), 1000000);
    LiveRequest* a = makeRequest(3000, 3);
    LiveRequest* b = makeRequest(3000, 3);
    mls.enqueuePrompt(a);
    mls.enqueuePrompt(b);

    // Batch forms with both prompts; no 2048-token budget applies.
    const BatchPlan prompt_plan = mls.nextBatch();
    EXPECT_EQ(prompt_plan.prompts.size(), 2u);
    EXPECT_EQ(prompt_plan.promptTokens, 6000);

    // New arrivals must wait for the batch to drain.
    LiveRequest* late = makeRequest(100, 2);
    mls.enqueuePrompt(late);
    a->generated = 1;
    b->generated = 1;
    mls.addResident(a);
    mls.addResident(b);
    const BatchPlan decode_plan = mls.nextBatch();
    EXPECT_TRUE(decode_plan.prompts.empty());
    EXPECT_EQ(decode_plan.decodes.size(), 2u);

    // Finish the members; only then does the late request run.
    mls.finish(a);
    mls.finish(b);
    const BatchPlan next = mls.nextBatch();
    ASSERT_EQ(next.prompts.size(), 1u);
    EXPECT_EQ(next.prompts[0], late);
}

// --- Introspection ---

TEST_F(MlsTest, WorkPredicates)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    EXPECT_FALSE(mls.hasPromptWork());
    EXPECT_FALSE(mls.hasDecodeWork());
    mls.enqueuePrompt(makeRequest(100, 2));
    EXPECT_TRUE(mls.hasPromptWork());
    makeResident(mls, 100, 1, 5);
    EXPECT_TRUE(mls.hasDecodeWork());
    EXPECT_EQ(mls.residentContextTokens(), 101);
}

TEST_F(MlsTest, RejectsRequestLargerThanMachine)
{
    Mls mls(config(BatchPolicy::kMixed), 1600);
    EXPECT_THROW(mls.enqueuePrompt(makeRequest(5000, 5)),
                 std::runtime_error);
}

TEST_F(MlsTest, BatchPlanShapeMatchesContents)
{
    Mls mls(config(BatchPolicy::kMixed), 100000);
    mls.enqueuePrompt(makeRequest(1000, 5));
    makeResident(mls, 300, 2, 10);
    makeResident(mls, 400, 3, 10);
    const BatchPlan plan = mls.nextBatch();
    const model::IterationShape shape = plan.shape();
    EXPECT_EQ(shape.promptTokens, 1000);
    EXPECT_EQ(shape.promptRequests, 1);
    EXPECT_EQ(shape.tokenRequests, 2);
    EXPECT_EQ(shape.contextTokens, 302 + 403);
    EXPECT_EQ(plan.activeTokens(), 1002);
}

TEST(MlsConfigTest, PolicyNames)
{
    EXPECT_STREQ(batchPolicyName(BatchPolicy::kMixed), "mixed");
    EXPECT_STREQ(batchPolicyName(BatchPolicy::kContinuous), "continuous");
    EXPECT_STREQ(batchPolicyName(BatchPolicy::kRequestLevel),
                 "request-level");
}

TEST(MlsConfigTest, RejectsBadConfig)
{
    MlsConfig bad;
    bad.promptTokenBudget = 0;
    EXPECT_THROW(Mls(bad, 1000), std::runtime_error);
    MlsConfig bad2;
    bad2.maxBatchSize = 0;
    EXPECT_THROW(Mls(bad2, 1000), std::runtime_error);
}

}  // namespace
}  // namespace splitwise::engine
