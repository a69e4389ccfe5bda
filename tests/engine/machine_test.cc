#include "engine/machine.h"

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

class MachineTest : public ::testing::Test {
  protected:
    MachineTest()
        : perf_(model::llama2_70b(), hw::dgxH100()),
          memory_(model::llama2_70b(), hw::dgxH100())
    {
    }

    Machine&
    makeMachine(MlsConfig mls = {}, Machine::Callbacks extra = {})
    {
        Machine::Callbacks cb = std::move(extra);
        if (!cb.onRequestDone) {
            cb.onRequestDone = [this](Machine&, LiveRequest* req) {
                done_.push_back(req);
            };
        }
        machines_.push_back(std::make_unique<Machine>(
            sim_, static_cast<int>(machines_.size()), hw::dgxH100(), perf_,
            memory_, mls, std::move(cb)));
        return *machines_.back();
    }

    LiveRequest*
    makeRequest(std::int64_t prompt, std::int64_t output,
                sim::TimeUs arrival = 0)
    {
        auto req = std::make_unique<LiveRequest>();
        req->spec = {nextId_++, arrival, prompt, output};
        requests_.push_back(std::move(req));
        return requests_.back().get();
    }

    sim::Simulator sim_;
    model::AnalyticalPerfModel perf_;
    model::MemoryModel memory_;
    std::vector<std::unique_ptr<Machine>> machines_;
    std::vector<std::unique_ptr<LiveRequest>> requests_;
    std::vector<LiveRequest*> done_;
    std::uint64_t nextId_ = 0;
};

TEST_F(MachineTest, SingleRequestRunsToCompletionLocally)
{
    Machine& m = makeMachine();
    LiveRequest* req = makeRequest(1000, 5);
    m.submitPrompt(req);
    sim_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_TRUE(req->finished());
    EXPECT_EQ(req->phase, RequestPhase::kDone);
    EXPECT_EQ(req->generated, 5);
    // TTFT approximates one prompt iteration.
    const double ttft = sim::usToMs(req->firstTokenTime - req->spec.arrival);
    EXPECT_NEAR(ttft, sim::usToMs(perf_.promptTime(1000, 1)), 1.0);
}

TEST_F(MachineTest, SingleOutputTokenFinishesAtPrompt)
{
    Machine& m = makeMachine();
    LiveRequest* req = makeRequest(500, 1);
    m.submitPrompt(req);
    sim_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(req->generated, 1);
    // KV released immediately: nothing resident.
    EXPECT_EQ(m.mls().blocks().residents(), 0u);
}

TEST_F(MachineTest, KvReleasedWhenRequestCompletes)
{
    Machine& m = makeMachine();
    m.submitPrompt(makeRequest(1000, 5));
    sim_.run();
    EXPECT_EQ(m.mls().blocks().usedTokens(), 0);
}

TEST_F(MachineTest, DecodeIterationsBatchAcrossRequests)
{
    Machine& m = makeMachine();
    for (int i = 0; i < 8; ++i)
        m.submitPrompt(makeRequest(200, 10));
    sim_.run();
    EXPECT_EQ(done_.size(), 8u);
    // Batched decoding needs far fewer iterations than the 80
    // generated tokens.
    EXPECT_LT(m.stats().iterations, 50u);
    EXPECT_EQ(m.stats().tokensGenerated, 80);
}

TEST_F(MachineTest, RemoteDestinationFiresPromptDoneAndKeepsKv)
{
    LiveRequest* captured = nullptr;
    sim::TimeUs captured_compute = 0;
    Machine::Callbacks cb;
    cb.onPromptDone = [&](Machine&, LiveRequest* req, sim::TimeUs compute) {
        captured = req;
        captured_compute = compute;
    };
    Machine& m = makeMachine({}, std::move(cb));
    LiveRequest* req = makeRequest(1000, 5);
    req->tokenMachine = 99;  // somewhere else
    m.submitPrompt(req);
    sim_.run();
    ASSERT_EQ(captured, req);
    EXPECT_GT(captured_compute, 0);
    EXPECT_EQ(req->phase, RequestPhase::kTransferring);
    EXPECT_EQ(req->generated, 1);
    // The prompt machine holds the KV until the transfer finishes.
    EXPECT_TRUE(m.mls().blocks().holds(*req));
    m.releaseKv(req);
    EXPECT_FALSE(m.mls().blocks().holds(*req));
}

TEST_F(MachineTest, AcceptTransferredDecodesToCompletion)
{
    Machine& m = makeMachine();
    LiveRequest* req = makeRequest(1000, 5);
    req->generated = 1;  // first token made on the prompt machine
    req->firstTokenTime = 0;
    req->prevTokenTime = 0;
    req->tokenMachine = m.id();
    ASSERT_TRUE(m.reserveKv(req, req->contextTokens() + 1));
    m.acceptTransferred(req);
    sim_.run();
    ASSERT_EQ(done_.size(), 1u);
    EXPECT_EQ(req->generated, 5);
}

TEST_F(MachineTest, ReserveKvFailsWhenFull)
{
    Machine& m = makeMachine();
    LiveRequest* big = makeRequest(10, 5);
    const auto capacity = m.mls().blocks().tokenCapacity();
    ASSERT_TRUE(m.reserveKv(big, capacity));
    LiveRequest* other = makeRequest(10, 5);
    EXPECT_FALSE(m.reserveKv(other, 100));
}

TEST_F(MachineTest, QueueDepthIncludesRunningPrompt)
{
    Machine& m = makeMachine();
    m.submitPrompt(makeRequest(1000, 2));
    // The prompt was admitted into a running iteration immediately.
    EXPECT_EQ(m.promptQueueDepthTokens(), 1000);
    m.submitPrompt(makeRequest(500, 2));
    EXPECT_EQ(m.promptQueueDepthTokens(), 1500);
    sim_.run();
    EXPECT_EQ(m.promptQueueDepthTokens(), 0);
}

TEST_F(MachineTest, TokenLoadTracksKv)
{
    Machine& m = makeMachine();
    EXPECT_EQ(m.tokenLoadTokens(), 0);
    LiveRequest* req = makeRequest(100, 5);
    ASSERT_TRUE(m.reserveKv(req, 300));
    EXPECT_EQ(m.tokenLoadTokens(), 300);
}

TEST_F(MachineTest, StatsAccumulate)
{
    Machine& m = makeMachine();
    m.submitPrompt(makeRequest(1000, 10));
    sim_.run();
    m.finalizeStats();
    const MachineStats& s = m.stats();
    EXPECT_GT(s.busyUs, 0);
    EXPECT_GT(s.energyWh, 0.0);
    EXPECT_EQ(s.promptTokensProcessed, 1000);
    EXPECT_EQ(s.tokensGenerated, 10);
    EXPECT_GE(s.promptIterations, 1u);
    EXPECT_GE(s.tokenIterations, 1u);
    // Machine was busy the whole run (single queue, no gaps).
    EXPECT_EQ(s.busyUs, sim_.now());
    EXPECT_EQ(s.activeTokens.histogram().totalTime(), sim_.now());
}

TEST_F(MachineTest, MixedIterationCountsWhenPromptMeetsDecodes)
{
    MlsConfig cfg;
    cfg.policy = BatchPolicy::kMixed;
    Machine& m = makeMachine(cfg);
    m.submitPrompt(makeRequest(500, 50));
    // Once the first prompt is done its decode is resident; a second
    // prompt arriving then joins mid-flight.
    sim_.post(sim_.now() + perf_.promptTime(500, 1) + 1000,
              [this, &m] { m.submitPrompt(makeRequest(500, 50)); });
    sim_.run();
    EXPECT_GE(m.stats().mixedIterations, 1u);
    EXPECT_EQ(done_.size(), 2u);
}

TEST_F(MachineTest, TransferInterferenceExtendsIteration)
{
    sim::TimeUs without = 0;
    {
        Machine& m = makeMachine();
        LiveRequest* req = makeRequest(2000, 2);
        req->tokenMachine = m.id();
        m.submitPrompt(req);
        sim_.run();
        without = req->firstTokenTime;
    }
    // Fresh fixture state: new machine with an interference hook and
    // a remote destination.
    done_.clear();
    const sim::TimeUs t0 = sim_.now();
    Machine::Callbacks cb;
    cb.onPromptDone = [](Machine&, LiveRequest*, sim::TimeUs) {};
    cb.transferInterference = [](Machine&, LiveRequest*, sim::TimeUs) {
        return sim::msToUs(5.0);
    };
    Machine& m = makeMachine({}, std::move(cb));
    LiveRequest* req = makeRequest(2000, 2);
    req->tokenMachine = 999;
    m.submitPrompt(req);
    sim_.run();
    const sim::TimeUs with_interference = req->firstTokenTime - t0;
    EXPECT_NEAR(static_cast<double>(with_interference - without),
                sim::msToUs(5.0), 100.0);
}

TEST_F(MachineTest, PerMachineHistogramCountsActiveTokens)
{
    Machine& m = makeMachine();
    m.submitPrompt(makeRequest(1000, 20));
    sim_.run();
    m.finalizeStats();
    const auto& hist = m.stats().activeTokens.histogram();
    // Some time at 1000 active tokens (prompt), most at 1 (decode).
    EXPECT_GT(hist.cdfAt(1), 0.3);
    EXPECT_LT(hist.cdfAt(999), 1.0);
}

TEST_F(MachineTest, FailDropsAllWork)
{
    Machine& m = makeMachine();
    m.submitPrompt(makeRequest(1000, 5));
    m.submitPrompt(makeRequest(1000, 5));
    m.fail();
    EXPECT_TRUE(m.failed());
    EXPECT_FALSE(m.mls().hasWork());
    EXPECT_EQ(m.tokenLoadTokens(), 0);
    // The in-flight iteration's completion is a no-op.
    sim_.run();
    EXPECT_TRUE(done_.empty());
}

TEST_F(MachineTest, FailThenRecoverLeavesNoStaleHoldCounted)
{
    Machine& m = makeMachine();
    LiveRequest* queued = makeRequest(1000, 5);
    LiveRequest* reserved = makeRequest(100, 5);
    m.submitPrompt(queued);
    ASSERT_TRUE(m.reserveKv(reserved, 200));
    ASSERT_TRUE(m.mls().blocks().holds(*queued));
    m.fail();
    m.recover();
    // The rows still carry their records, but the crash voided them
    // without visiting either request.
    const BlockManager& blocks = m.mls().blocks();
    EXPECT_FALSE(blocks.holds(*queued));
    EXPECT_FALSE(blocks.holds(*reserved));
    EXPECT_EQ(blocks.residents(), 0u);
    EXPECT_EQ(blocks.usedTokens(), 0);
    EXPECT_EQ(blocks.audit({queued, reserved}), "");
    // The same request can allocate on the recovered machine again.
    ASSERT_TRUE(m.reserveKv(reserved, 200));
    EXPECT_EQ(blocks.residents(), 1u);
    EXPECT_EQ(blocks.audit({queued, reserved}), "");
    m.releaseKv(reserved);
    EXPECT_EQ(blocks.residents(), 0u);
    // The iteration that was in flight at the crash stays void.
    sim_.run();
    EXPECT_TRUE(done_.empty());
}

TEST_F(MachineTest, FailedMachineRefusesReservations)
{
    Machine& m = makeMachine();
    m.fail();
    LiveRequest* req = makeRequest(100, 5);
    EXPECT_FALSE(m.reserveKv(req, 200));
}

TEST_F(MachineTest, FailIsIdempotent)
{
    Machine& m = makeMachine();
    m.fail();
    m.fail();
    EXPECT_TRUE(m.failed());
}

using MachineDeathTest = MachineTest;

TEST_F(MachineDeathTest, SubmitToFailedMachinePanics)
{
    sim::Simulator simulator;
    const model::AnalyticalPerfModel perf(model::llama2_70b(),
                                          hw::dgxH100());
    const model::MemoryModel memory(model::llama2_70b(), hw::dgxH100());
    Machine machine(simulator, 0, hw::dgxH100(), perf, memory, {}, {});
    machine.fail();
    LiveRequest req;
    req.spec = {1, 0, 100, 5};
    EXPECT_DEATH(machine.submitPrompt(&req), "failed machine");
}

}  // namespace
}  // namespace splitwise::engine
