#include "core/ingress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/recording.h"
#include "model/llm_config.h"
#include "sim/clock.h"

namespace splitwise::core {
namespace {

/** A serve loop on a worker thread with a SimClock: virtual-time
 *  live serving, the configuration every test here drives. */
class ServeFixture {
  public:
    explicit ServeFixture(SessionRecording* capture = nullptr)
        : cluster_(model::llama2_70b(), splitwiseHH(1, 1))
    {
        thread_ = std::thread([this, capture] {
            report_ = cluster_.serve(ingress_, clock_, capture);
        });
    }

    ~ServeFixture()
    {
        if (thread_.joinable()) {
            ingress_.shutdown();
            thread_.join();
        }
    }

    Ingress& ingress() { return ingress_; }

    const RunReport&
    finish()
    {
        ingress_.shutdown();
        thread_.join();
        return report_;
    }

  private:
    Cluster cluster_;
    Ingress ingress_;
    sim::SimClock clock_;
    std::thread thread_;
    RunReport report_;
};

/** Collects one request's stream; thread-safe. */
struct StreamLog {
    std::mutex mu;
    std::vector<TokenUpdate> updates;

    StreamCallback
    callback()
    {
        return [this](const TokenUpdate& update) {
            std::lock_guard<std::mutex> lock(mu);
            updates.push_back(update);
        };
    }

    bool
    terminal()
    {
        std::lock_guard<std::mutex> lock(mu);
        return !updates.empty() &&
               (updates.back().finished || updates.back().rejected);
    }

    std::vector<TokenUpdate>
    snapshot()
    {
        std::lock_guard<std::mutex> lock(mu);
        return updates;
    }
};

void
awaitTerminal(StreamLog& log)
{
    while (!log.terminal())
        std::this_thread::yield();
}

IngressRequest
request(std::int64_t prompt, std::int64_t output)
{
    IngressRequest r;
    r.promptTokens = prompt;
    r.outputTokens = output;
    return r;
}

TEST(IngressTest, StreamsMonotoneTokensToTerminal)
{
    ServeFixture serve;
    StreamLog log;
    RequestHandle handle =
        serve.ingress().submit(request(128, 5), log.callback());
    ASSERT_TRUE(handle.valid());
    awaitTerminal(log);
    const auto updates = log.snapshot();
    ASSERT_EQ(updates.size(), 5u);
    for (std::size_t i = 0; i < updates.size(); ++i) {
        EXPECT_EQ(updates[i].tokensGenerated,
                  static_cast<std::int64_t>(i + 1));
        EXPECT_EQ(updates[i].requestId, handle.id());
        EXPECT_EQ(updates[i].finished, i + 1 == updates.size());
        if (i > 0)
            EXPECT_GT(updates[i].at, updates[i - 1].at);
    }
    (void)handle.detach();
    const RunReport& report = serve.finish();
    EXPECT_EQ(report.requests.completed(), 1u);
    EXPECT_EQ(serve.ingress().unresolved(), 0u);
}

/**
 * Under SimClock, virtual time outruns wall time: a cancel issued
 * "while streaming" loses the race unless the stream is held back.
 * The callback (on the serving thread) blocks at the first token
 * until the client thread has enqueued its cancel, making the
 * cancel-before-completion ordering deterministic.
 */
TEST(IngressTest, CancelClampsTheStream)
{
    ServeFixture serve;
    StreamLog log;
    std::atomic<bool> cancel_enqueued{false};
    RequestHandle handle = serve.ingress().submit(
        request(128, 2000), [&](const TokenUpdate& update) {
            log.callback()(update);
            // Publish the update first, then hold the stream until
            // the client's cancel is in the mailbox.
            if (update.tokensGenerated == 1) {
                while (!cancel_enqueued.load())
                    std::this_thread::yield();
            }
        });
    ASSERT_TRUE(handle.valid());
    while (log.snapshot().empty())
        std::this_thread::yield();
    handle.cancel();
    cancel_enqueued.store(true);
    awaitTerminal(log);
    const auto updates = log.snapshot();
    EXPECT_TRUE(updates.back().finished);
    // Clamped at the next token boundary, far below the budget.
    EXPECT_LT(updates.back().tokensGenerated, 2000);
    serve.finish();
    EXPECT_EQ(serve.ingress().unresolved(), 0u);
}

TEST(IngressTest, DroppingTheHandleAutoCancels)
{
    ServeFixture serve;
    StreamLog log;
    std::atomic<bool> dropped{false};
    {
        RequestHandle handle = serve.ingress().submit(
            request(128, 2000), [&](const TokenUpdate& update) {
                log.callback()(update);
                if (update.tokensGenerated == 1) {
                    while (!dropped.load())
                        std::this_thread::yield();
                }
            });
        ASSERT_TRUE(handle.valid());
        while (log.snapshot().empty())
            std::this_thread::yield();
        // Handle goes out of scope here: auto-cancel.
    }
    dropped.store(true);
    awaitTerminal(log);
    EXPECT_LT(log.snapshot().back().tokensGenerated, 2000);
    serve.finish();
    EXPECT_EQ(serve.ingress().cancelsRequested(), 1u);
    EXPECT_EQ(serve.ingress().unresolved(), 0u);
}

TEST(IngressTest, SubmitAfterShutdownIsRejectedInline)
{
    ServeFixture serve;
    serve.finish();
    StreamLog log;
    RequestHandle handle =
        serve.ingress().submit(request(128, 4), log.callback());
    EXPECT_FALSE(handle.valid());
    const auto updates = log.snapshot();
    ASSERT_EQ(updates.size(), 1u);
    EXPECT_TRUE(updates.back().rejected);
    EXPECT_EQ(serve.ingress().unresolved(), 0u);
}

TEST(IngressTest, CancelUnknownIdIsANoop)
{
    ServeFixture serve;
    serve.ingress().cancel(12345);
    StreamLog log;
    RequestHandle handle =
        serve.ingress().submit(request(64, 2), log.callback());
    ASSERT_TRUE(handle.valid());
    awaitTerminal(log);
    (void)handle.detach();
    const RunReport& report = serve.finish();
    EXPECT_EQ(report.requests.completed(), 1u);
}

TEST(IngressTest, InspectSeesTheLiveCluster)
{
    ServeFixture serve;
    StreamLog log;
    RequestHandle handle =
        serve.ingress().submit(request(128, 3), log.callback());
    ASSERT_TRUE(handle.valid());
    // The serve thread may not have entered its loop yet; inspect
    // then waits for the loop instead of reporting false.
    EXPECT_TRUE(serve.ingress().inspect([](const Cluster& cluster) {
        EXPECT_GE(cluster.metrics().names().size(), 1u);
    }));
    awaitTerminal(log);
    (void)handle.detach();
    serve.finish();
    // After the loop exits, inspect reports no serving.
    EXPECT_FALSE(serve.ingress().inspect([](const Cluster&) {}));
}

TEST(IngressTest, InspectBeforeServingIsAnsweredOnceServingBegins)
{
    // A client can reach the Ingress before the serve loop starts
    // (an HTTP port opens first). Its inspect must wait for the loop,
    // not fail.
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 1));
    Ingress ingress;
    sim::SimClock clock;
    std::atomic<bool> ran{false};
    std::thread inspector([&] {
        EXPECT_TRUE(ingress.inspect([&](const Cluster&) { ran = true; }));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(ran.load());
    std::thread serving([&] { cluster.serve(ingress, clock); });
    inspector.join();
    EXPECT_TRUE(ran.load());
    ingress.shutdown();
    serving.join();
}

TEST(IngressTest, ConservationAcrossManyRequests)
{
    ServeFixture serve;
    std::vector<StreamLog> logs(20);
    std::vector<std::uint64_t> ids;
    for (auto& log : logs) {
        RequestHandle handle =
            serve.ingress().submit(request(64, 3), log.callback());
        ASSERT_TRUE(handle.valid());
        ids.push_back(handle.detach());
    }
    for (auto& log : logs)
        awaitTerminal(log);
    serve.finish();
    EXPECT_EQ(serve.ingress().accepted(), 20u);
    EXPECT_EQ(serve.ingress().completed() +
                  serve.ingress().rejectedByAdmission() +
                  serve.ingress().rejectedAtShutdown(),
              20u);
    EXPECT_EQ(serve.ingress().unresolved(), 0u);
}

}  // namespace
}  // namespace splitwise::core
