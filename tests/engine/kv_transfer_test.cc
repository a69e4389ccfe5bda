#include "engine/kv_transfer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "sim/simulator.h"

namespace splitwise::engine {
namespace {

/**
 * Two-machine fixture: machine 0 plays the prompt role, machine 1
 * the token role, with the transfer engine between them.
 */
class KvTransferTest : public ::testing::Test {
  protected:
    KvTransferTest()
        : perf_(model::llama2_70b(), hw::dgxH100()),
          memory_(model::llama2_70b(), hw::dgxH100()),
          engine_(sim_, model::llama2_70b())
    {
        Machine::Callbacks cb;
        cb.onRequestDone = [this](Machine&, LiveRequest* req) {
            done_.push_back(req);
        };
        cb.onPromptDone = [this](Machine& m, LiveRequest* req,
                                 sim::TimeUs compute) {
            engine_.startTransfer(req, &m, machines_[1].get(), compute);
        };
        cb.onMemoryFreed = [this](Machine& m) { engine_.onMemoryFreed(&m); };
        for (int i = 0; i < 2; ++i) {
            machines_.push_back(std::make_unique<Machine>(
                sim_, i, hw::dgxH100(), perf_, memory_, MlsConfig{}, cb));
            engine_.registerMachine(machines_.back().get());
        }
    }

    LiveRequest*
    makeRequest(std::int64_t prompt, std::int64_t output)
    {
        auto req = std::make_unique<LiveRequest>();
        req->spec = {nextId_++, 0, prompt, output};
        req->tokenMachine = 1;
        requests_.push_back(std::move(req));
        return requests_.back().get();
    }

    /**
     * Set delivered_ once @p req shows up in the token machine's
     * decode set, i.e. once its transfer delivered it (probed every
     * 100 us).
     */
    void
    watchDelivery(LiveRequest* req)
    {
        for (sim::TimeUs t = 0; t < sim::secondsToUs(2.0); t += 100) {
            sim_.post(t, [this, req] {
                delivered_ = delivered_ || machines_[1]->mls().resident(req);
            });
        }
    }

    sim::Simulator sim_;
    model::AnalyticalPerfModel perf_;
    model::MemoryModel memory_;
    std::vector<std::unique_ptr<Machine>> machines_;
    KvTransferEngine engine_;
    std::vector<std::unique_ptr<LiveRequest>> requests_;
    std::vector<LiveRequest*> done_;
    bool delivered_ = false;
    std::uint64_t nextId_ = 0;
};

TEST_F(KvTransferTest, RequestSplitsAcrossMachines)
{
    LiveRequest* req = makeRequest(1000, 5);
    watchDelivery(req);
    machines_[0]->submitPrompt(req);
    sim_.run();
    ASSERT_EQ(done_.size(), 1u);
    ASSERT_TRUE(delivered_);
    EXPECT_TRUE(req->finished());
    // Prompt ran on 0, decode on 1.
    EXPECT_EQ(machines_[0]->stats().promptTokensProcessed, 1000);
    EXPECT_EQ(machines_[0]->stats().tokensGenerated, 1);
    EXPECT_EQ(machines_[1]->stats().tokensGenerated, 4);
    // Both machines released the KV at the end.
    EXPECT_EQ(machines_[0]->tokenLoadTokens(), 0);
    EXPECT_EQ(machines_[1]->tokenLoadTokens(), 0);
}

TEST_F(KvTransferTest, SecondTokenCarriesTransferLatency)
{
    LiveRequest* req = makeRequest(2000, 3);
    machines_[0]->submitPrompt(req);
    sim_.run();
    // The second token's gap exceeds a plain decode iteration by the
    // visible transfer time.
    const double tbt = sim::usToMs(perf_.tokenTime(1, 2001));
    EXPECT_GT(req->secondTokenMs, tbt);
    EXPECT_LT(req->secondTokenMs, tbt + 25.0);
}

TEST_F(KvTransferTest, LargePromptsUseLayerwise)
{
    machines_[0]->submitPrompt(makeRequest(2048, 3));
    sim_.run();
    EXPECT_EQ(engine_.stats().transfers, 1u);
    EXPECT_EQ(engine_.stats().layerwiseTransfers, 1u);
}

TEST_F(KvTransferTest, SmallPromptsUseSerialized)
{
    machines_[0]->submitPrompt(makeRequest(128, 3));
    sim_.run();
    EXPECT_EQ(engine_.stats().transfers, 1u);
    EXPECT_EQ(engine_.stats().layerwiseTransfers, 0u);
}

TEST_F(KvTransferTest, BytesMovedMatchKvSize)
{
    machines_[0]->submitPrompt(makeRequest(1000, 3));
    sim_.run();
    EXPECT_EQ(engine_.stats().bytesMoved,
              1000 * model::llama2_70b().kvBytesPerToken());
}

TEST_F(KvTransferTest, ManyTransfersAllComplete)
{
    for (int i = 0; i < 20; ++i)
        machines_[0]->submitPrompt(makeRequest(600, 4));
    sim_.run();
    EXPECT_EQ(done_.size(), 20u);
    EXPECT_EQ(engine_.stats().transfers, 20u);
}

TEST_F(KvTransferTest, MemoryStallDefersTransferUntilFreed)
{
    // Fill the destination almost completely with a dummy
    // reservation, forcing the transfer to queue.
    LiveRequest* blocker = makeRequest(10, 2);
    const auto capacity = machines_[1]->mls().blocks().tokenCapacity();
    ASSERT_TRUE(machines_[1]->reserveKv(blocker, capacity - 100));

    LiveRequest* req = makeRequest(1000, 3);
    machines_[0]->submitPrompt(req);
    sim_.run();
    // Transfer stalled: request still parked in the transfer phase.
    EXPECT_EQ(engine_.stats().memoryStalls, 1u);
    EXPECT_EQ(req->phase, RequestPhase::kTransferring);
    EXPECT_FALSE(req->finished());

    // Free the blocker; the queued transfer resumes and completes.
    machines_[1]->releaseKv(blocker);
    sim_.run();
    EXPECT_TRUE(req->finished());
    EXPECT_EQ(engine_.stats().transfers, 1u);
}

TEST_F(KvTransferTest, TransferHoldsOnBothMachinesUntilDelivery)
{
    // Serialized transfer (small prompt): the wire time spans several
    // probe steps.
    LiveRequest* req = makeRequest(128, 4);
    const BlockManager& src = machines_[0]->mls().blocks();
    const BlockManager& dst = machines_[1]->mls().blocks();
    int in_flight = 0;
    int delivered = 0;
    constexpr sim::TimeUs kStepUs = 100;
    for (sim::TimeUs at = 0; at < sim::secondsToUs(2.0); at += kStepUs) {
        sim_.post(at, [&, req] {
            if (req->phase == RequestPhase::kTransferring) {
                ++in_flight;
                EXPECT_TRUE(src.holds(*req));
                EXPECT_TRUE(dst.holds(*req));
            } else if (req->phase == RequestPhase::kDecoding) {
                ++delivered;
                EXPECT_FALSE(src.holds(*req));
                EXPECT_EQ(src.holdOf(*req), nullptr);
                EXPECT_TRUE(dst.holds(*req));
                EXPECT_EQ(src.residents(), 0u);
            } else {
                return;
            }
            EXPECT_EQ(src.audit({req}), "");
            EXPECT_EQ(dst.audit({req}), "");
        });
    }
    machines_[0]->submitPrompt(req);
    sim_.run();
    EXPECT_GT(in_flight, 0);
    EXPECT_GT(delivered, 0);
    ASSERT_TRUE(req->finished());
    EXPECT_FALSE(dst.holds(*req));
    EXPECT_EQ(src.audit({req}), "");
    EXPECT_EQ(dst.audit({req}), "");
    EXPECT_EQ(dst.residents(), 0u);
}

TEST_F(KvTransferTest, InterferenceOnlyForLayerwise)
{
    LiveRequest* small = makeRequest(128, 2);
    LiveRequest* large = makeRequest(4096, 2);
    const sim::TimeUs compute = perf_.promptTime(4096, 1);
    EXPECT_EQ(engine_.interferenceFor(*machines_[0], small, compute), 0);
    EXPECT_GT(engine_.interferenceFor(*machines_[0], large, compute), 0);
}

TEST_F(KvTransferTest, InterferenceZeroForUnknownDestination)
{
    LiveRequest* req = makeRequest(4096, 2);
    req->tokenMachine = 77;  // not registered
    EXPECT_EQ(engine_.interferenceFor(*machines_[0], req, 1000), 0);
}

TEST_F(KvTransferTest, NicSerializesConcurrentTransfers)
{
    // Two simultaneous small transfers to the same destination must
    // not overlap on the NIC: completion times differ by at least
    // one visible transfer time.
    LiveRequest* a = makeRequest(256, 2);
    LiveRequest* b = makeRequest(256, 2);
    machines_[0]->submitPrompt(a);
    machines_[0]->submitPrompt(b);
    sim_.run();
    EXPECT_EQ(done_.size(), 2u);
    EXPECT_EQ(engine_.stats().transfers, 2u);
    EXPECT_GE(engine_.stats().totalVisibleUs,
              2 * hw::linkBetween(hw::dgxH100(), hw::dgxH100()).setupUs);
}

TEST_F(KvTransferTest, TransientFaultRetriesAfterBackoff)
{
    LiveRequest* req = makeRequest(1000, 4);
    const sim::TimeUs prompt = perf_.promptTime(1000, 1);

    KvRetryPolicy policy;
    policy.maxRetries = 3;
    policy.backoffBaseUs = 8 * prompt;  // first retry lands post-window
    engine_.setRetryPolicy(policy);
    // The first attempt starts right after the prompt iteration
    // (prompt compute plus a little interference), well inside this
    // window; the backed-off retry lands well outside it.
    engine_.injectLinkFault(1, 0, 3 * prompt);

    machines_[0]->submitPrompt(req);
    sim_.run();

    EXPECT_TRUE(req->finished());
    EXPECT_EQ(engine_.stats().transferFaults, 1u);
    EXPECT_EQ(engine_.stats().transferRetries, 1u);
    EXPECT_EQ(engine_.stats().transferAborts, 0u);
    // Only the successful attempt counts as a transfer.
    EXPECT_EQ(engine_.stats().transfers, 1u);
    EXPECT_EQ(machines_[1]->stats().tokensGenerated, 3);
}

TEST_F(KvTransferTest, ExhaustedRetryBudgetAbortsAndReleasesKv)
{
    std::vector<LiveRequest*> aborted;
    engine_.setOnAbort([&](LiveRequest* r) { aborted.push_back(r); });

    KvRetryPolicy policy;
    policy.maxRetries = 0;
    engine_.setRetryPolicy(policy);
    const sim::TimeUs prompt = perf_.promptTime(1000, 1);
    engine_.injectLinkFault(1, 0, 10 * prompt);

    LiveRequest* req = makeRequest(1000, 4);
    machines_[0]->submitPrompt(req);
    sim_.run();

    ASSERT_EQ(aborted.size(), 1u);
    EXPECT_EQ(aborted[0], req);
    EXPECT_EQ(engine_.stats().transferAborts, 1u);
    EXPECT_EQ(engine_.stats().transferRetries, 0u);
    EXPECT_FALSE(req->finished());
    // Both the source copy and the destination reservation are gone.
    EXPECT_EQ(machines_[0]->mls().blocks().usedTokens(), 0);
    EXPECT_EQ(machines_[1]->mls().blocks().usedTokens(), 0);
}

TEST_F(KvTransferTest, PerAttemptTimeoutCountsAndAborts)
{
    std::vector<LiveRequest*> aborted;
    engine_.setOnAbort([&](LiveRequest* r) { aborted.push_back(r); });

    KvRetryPolicy policy;
    policy.maxRetries = 0;
    policy.timeoutUs = 10;  // far below any real transfer time
    engine_.setRetryPolicy(policy);

    machines_[0]->submitPrompt(makeRequest(128, 4));
    sim_.run();

    EXPECT_EQ(engine_.stats().transferTimeouts, 1u);
    EXPECT_EQ(engine_.stats().transferAborts, 1u);
    EXPECT_EQ(aborted.size(), 1u);
}

TEST_F(KvTransferTest, DegradedLinkStretchesVisibleTime)
{
    // First transfer runs on a clean link.
    machines_[0]->submitPrompt(makeRequest(128, 3));
    sim_.run();
    const auto clean_visible = engine_.stats().totalVisibleUs;
    ASSERT_GT(clean_visible, 0);
    EXPECT_EQ(engine_.stats().degradedTransfers, 0u);

    // Second identical transfer runs inside a 10%-bandwidth window.
    engine_.injectLinkDegrade(1, sim_.now(),
                              sim_.now() + sim::secondsToUs(60.0), 0.1);
    machines_[0]->submitPrompt(makeRequest(128, 3));
    sim_.run();
    EXPECT_EQ(engine_.stats().degradedTransfers, 1u);
    EXPECT_EQ(engine_.stats().transfers, 2u);
    // 10% bandwidth => ~10x the visible time.
    EXPECT_GT(engine_.stats().totalVisibleUs - clean_visible,
              5 * clean_visible);
}

/**
 * Probe the simulation on a fixed grid and kill @p victim at the
 * first instant @p req is observed mid-transfer.
 */
void
failDuringTransfer(sim::Simulator& sim, LiveRequest* req, Machine* victim)
{
    auto killed = std::make_shared<bool>(false);
    constexpr sim::TimeUs kStepUs = 100;
    for (sim::TimeUs t = 0; t < sim::secondsToUs(2.0); t += kStepUs) {
        sim.post(t, [req, victim, killed] {
            if (*killed || req->phase != RequestPhase::kTransferring)
                return;
            *killed = true;
            victim->fail();
        });
    }
}

TEST_F(KvTransferTest, SrcDiesMidFlightReleasesDstReservation)
{
    // Serialized transfer (small prompt): the wire time is long
    // enough for the probe grid to catch the request in flight.
    LiveRequest* req = makeRequest(128, 4);
    failDuringTransfer(sim_, req, machines_[0].get());
    watchDelivery(req);

    machines_[0]->submitPrompt(req);
    sim_.run();

    ASSERT_TRUE(machines_[0]->failed());
    EXPECT_FALSE(req->finished());
    EXPECT_FALSE(delivered_);
    // The destination's reserved-but-unfilled blocks were released:
    // nothing leaks even with no cluster-level failure handler.
    EXPECT_EQ(machines_[1]->mls().blocks().usedTokens(), 0);
    EXPECT_FALSE(machines_[1]->mls().blocks().holds(*req));
}

TEST_F(KvTransferTest, DstDiesMidFlightReleasesSrcCopy)
{
    LiveRequest* req = makeRequest(128, 4);
    failDuringTransfer(sim_, req, machines_[1].get());
    watchDelivery(req);

    machines_[0]->submitPrompt(req);
    sim_.run();

    ASSERT_TRUE(machines_[1]->failed());
    EXPECT_FALSE(req->finished());
    EXPECT_FALSE(delivered_);
    // The source dropped its copy; the dead destination's pool was
    // cleared by fail(). No block is held anywhere for the request.
    EXPECT_EQ(machines_[0]->mls().blocks().usedTokens(), 0);
    EXPECT_EQ(machines_[1]->mls().blocks().usedTokens(), 0);
}

TEST_F(KvTransferTest, RetryDropsWhenEndpointDiesDuringBackoff)
{
    KvRetryPolicy policy;
    policy.maxRetries = 5;
    policy.backoffBaseUs = sim::secondsToUs(1.0);
    engine_.setRetryPolicy(policy);
    const sim::TimeUs prompt = perf_.promptTime(1000, 1);
    engine_.injectLinkFault(1, 0, 3 * prompt);

    LiveRequest* req = makeRequest(1000, 4);
    machines_[0]->submitPrompt(req);
    // The first attempt fails inside the window; the destination dies
    // during the long backoff. The retry must notice and stand down.
    sim_.post(3 * prompt + sim::msToUs(1.0),
                  [this] { machines_[1]->fail(); });
    sim_.run();

    EXPECT_EQ(engine_.stats().transferRetries, 1u);
    // The stand-down is a clean abort: the source copy is released,
    // not stranded.
    EXPECT_EQ(engine_.stats().transferAborts, 1u);
    EXPECT_FALSE(req->finished());
    EXPECT_EQ(machines_[0]->mls().blocks().usedTokens(), 0);
    EXPECT_EQ(machines_[1]->mls().blocks().usedTokens(), 0);
}

}  // namespace
}  // namespace splitwise::engine
