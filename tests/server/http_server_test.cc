/**
 * @file
 * Full-stack loopback test of the HTTP serving front-end: real
 * sockets, the CompletionService, an Ingress, and a cluster serve
 * loop under SimClock.
 */

#include "server/serving.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/ingress.h"
#include "core/json.h"
#include "core/run.h"
#include "model/llm_config.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "sim/clock.h"

namespace splitwise::server {
namespace {

/** Server + serve loop + HTTP listener, torn down in order. Most
 *  tests run under SimClock; tests that need real token cadence
 *  (e.g. to win a cancellation race) override makeClock(). */
class ServerFixture : public ::testing::Test {
  protected:
    virtual std::unique_ptr<sim::Clock>
    makeClock()
    {
        return std::make_unique<sim::SimClock>();
    }

    void
    SetUp() override
    {
        clock_ = makeClock();
        core::RunOptions options;
        options.llm = model::llama2_70b();
        options.design = core::splitwiseHH(1, 1);
        serveThread_ = std::thread([this, options] {
            core::runLive(options, ingress_, *clock_);
        });
        service_ = std::make_unique<CompletionService>(ingress_);
        http_ = std::make_unique<HttpServer>(
            [this](const HttpRequest& request, ResponseWriter& writer) {
                service_->handle(request, writer);
            });
        ASSERT_TRUE(http_->start(0));
    }

    void
    TearDown() override
    {
        drain();
        http_->stop();
        EXPECT_EQ(ingress_.unresolved(), 0u);
    }

    /** Stop admissions and wait for the serve loop to finish. */
    void
    drain()
    {
        ingress_.shutdown();
        if (serveThread_.joinable())
            serveThread_.join();
    }

    int port() { return http_->port(); }

    core::Ingress ingress_;
    std::unique_ptr<sim::Clock> clock_;
    std::thread serveThread_;
    std::unique_ptr<CompletionService> service_;
    std::unique_ptr<HttpServer> http_;
};

/** Connect to the loopback server and send @p raw verbatim; the
 *  connected socket, or -1 on failure. */
int
connectAndSend(int port, const std::string& raw)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(raw.size())) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read from @p fd until the server closes it, giving up after
 *  @p timeout_s without a byte; closes @p fd. */
std::string
readUntilClosed(int fd, int timeout_s)
{
    timeval timeout{};
    timeout.tv_sec = timeout_s;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    std::string response;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
        response.append(buffer, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

/** Send @p raw verbatim and read the response until the server
 *  closes, giving up after @p timeout_s without a byte. */
std::string
rawExchange(int port, const std::string& raw, int timeout_s)
{
    const int fd = connectAndSend(port, raw);
    return fd < 0 ? "" : readUntilClosed(fd, timeout_s);
}

/** POST a small valid completion and check it streams to the end. */
void
expectCompletes(int port)
{
    const HttpResult ok = httpRequest(port, "POST", "/v1/completions",
                                      "{\"prompt_tokens\": 64, "
                                      "\"output_tokens\": 2}");
    ASSERT_EQ(ok.status, 200);
    const std::string last =
        ok.body.substr(ok.body.rfind('\n', ok.body.size() - 2) + 1);
    EXPECT_TRUE(core::JsonValue::parse(last).at("finished").asBool())
        << ok.body;
}

/** Wall-clock variant: tokens stream at real decode cadence, so a
 *  client's DELETE can land mid-stream instead of losing the race
 *  against virtual time. */
class WallClockServerFixture : public ServerFixture {
  protected:
    std::unique_ptr<sim::Clock>
    makeClock() override
    {
        return std::make_unique<sim::WallClock>();
    }
};

TEST_F(ServerFixture, CompletionStreamsTokenRecords)
{
    std::vector<core::JsonValue> records;
    std::string partial;
    const int status = httpStream(
        port(), "POST", "/v1/completions",
        "{\"prompt_tokens\": 128, \"output_tokens\": 3}",
        [&](const std::string& data) {
            partial += data;
            std::size_t eol;
            while ((eol = partial.find('\n')) != std::string::npos) {
                records.push_back(
                    core::JsonValue::parse(partial.substr(0, eol)));
                partial.erase(0, eol + 1);
            }
            return true;
        });
    EXPECT_EQ(status, 200);
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].at("tokens").asInt(),
                  static_cast<std::int64_t>(i + 1));
        EXPECT_EQ(records[i].at("finished").asBool(),
                  i + 1 == records.size());
    }
}

TEST_F(ServerFixture, MalformedBodyIs400)
{
    const HttpResult result =
        httpRequest(port(), "POST", "/v1/completions", "not json");
    EXPECT_EQ(result.status, 400);

    const HttpResult missing =
        httpRequest(port(), "POST", "/v1/completions", "{}");
    EXPECT_EQ(missing.status, 400);

    // Numbers that do not convert to the field's integer type: out of
    // int64 range, fractional, out of int range, or a negative id.
    for (const char* body :
         {"{\"prompt_tokens\": 1e30}",
          "{\"prompt_tokens\": -1e30}",
          "{\"prompt_tokens\": 2.5}",
          "{\"prompt_tokens\": 64, \"output_tokens\": 1.5}",
          "{\"prompt_tokens\": 64, \"turn\": 1e10}",
          "{\"prompt_tokens\": 64, \"priority\": 3000000000}",
          "{\"prompt_tokens\": 64, \"priority\": 0.5}",
          "{\"prompt_tokens\": 64, \"session\": -1}",
          "{\"prompt_tokens\": 64, \"session\": 1.5}"}) {
        EXPECT_EQ(httpRequest(port(), "POST", "/v1/completions", body)
                      .status,
                  400)
            << body;
    }
    expectCompletes(port());

    drain();
    EXPECT_EQ(ingress_.completed(), 1u);
    EXPECT_EQ(ingress_.unresolved(), 0u);  // leaked=0
}

TEST_F(ServerFixture, OversizedBodyIs413WithoutReadingIt)
{
    // A 1 GiB declared body that never arrives: the server must answer
    // from the header alone instead of waiting for (or buffering) it.
    // An overflowing or unparseable length gets the same answer.
    for (const char* length :
         {"1073741824", "99999999999999999999999", "12abc"}) {
        const auto start = std::chrono::steady_clock::now();
        const std::string response =
            rawExchange(port(),
                        std::string("POST /v1/completions HTTP/1.1\r\n"
                                    "Host: 127.0.0.1\r\n"
                                    "Content-Length: ") +
                            length + "\r\n\r\n",
                        5);
        EXPECT_EQ(response.rfind("HTTP/1.1 413 ", 0), 0u)
            << length << ": " << response;
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(5))
            << length;
    }

    expectCompletes(port());
    drain();
    EXPECT_EQ(ingress_.completed(), 1u);
    EXPECT_EQ(ingress_.unresolved(), 0u);  // leaked=0
}

TEST_F(ServerFixture, UnknownRouteIs404)
{
    const HttpResult result = httpRequest(port(), "GET", "/nope");
    EXPECT_EQ(result.status, 404);
}

TEST_F(WallClockServerFixture, DeleteCancelsAStream)
{
    std::int64_t final_tokens = -1;
    std::string partial;
    const int status = httpStream(
        port(), "POST", "/v1/completions",
        "{\"prompt_tokens\": 128, \"output_tokens\": 2000}",
        [&](const std::string& data) {
            partial += data;
            std::size_t eol;
            while ((eol = partial.find('\n')) != std::string::npos) {
                const core::JsonValue record =
                    core::JsonValue::parse(partial.substr(0, eol));
                partial.erase(0, eol + 1);
                final_tokens = record.at("tokens").asInt();
                if (record.at("tokens").asInt() == 1) {
                    const std::string id =
                        std::to_string(record.at("id").asInt());
                    EXPECT_EQ(httpRequest(port(), "DELETE",
                                          "/v1/completions/" + id)
                                  .status,
                              202);
                }
                if (record.at("finished").asBool())
                    return false;
            }
            return true;
        });
    EXPECT_EQ(status, 200);
    // Cancelled long before the 2000-token budget.
    EXPECT_GE(final_tokens, 1);
    EXPECT_LT(final_tokens, 2000);
}

TEST_F(ServerFixture, MetricsSnapshotIsServed)
{
    const HttpResult result = httpRequest(port(), "GET", "/v1/metrics");
    ASSERT_EQ(result.status, 200);
    const core::JsonValue doc = core::JsonValue::parse(result.body);
    EXPECT_TRUE(doc.has("simulated_us"));
    EXPECT_TRUE(doc.has("metrics"));
}

TEST_F(ServerFixture, OversizedRequestsAreRejectedNotFatal)
{
    // Either body's final context outgrows every machine's KV. Each
    // must come back as a terminal rejected record, and the server
    // must keep serving.
    for (const char* body :
         {"{\"prompt_tokens\": 100000000, \"output_tokens\": 1}",
          "{\"prompt_tokens\": 10, \"output_tokens\": 100000000}"}) {
        const HttpResult result =
            httpRequest(port(), "POST", "/v1/completions", body);
        ASSERT_EQ(result.status, 200) << body;
        const core::JsonValue record = core::JsonValue::parse(result.body);
        EXPECT_TRUE(record.has("rejected")) << result.body;
    }
    expectCompletes(port());

    drain();
    EXPECT_EQ(ingress_.rejectedByAdmission(), 2u);
    EXPECT_EQ(ingress_.completed(), 1u);
    EXPECT_EQ(ingress_.unresolved(), 0u);  // leaked=0
}

TEST_F(ServerFixture, IdleClientCannotHangStop)
{
    // A client that sends half a header and then goes quiet. stop()
    // joins every connection thread, so the server's socket deadline
    // is all that lets it return while the client stays connected.
    const int fd =
        connectAndSend(port(), "POST /v1/completions HTTP/1.1\r\nHost:");
    ASSERT_GE(fd, 0);
    // Connections are accepted in order: once a later one completes,
    // the idle one has its own thread, blocked reading.
    expectCompletes(port());
    drain();

    auto stopped = std::async(std::launch::async, [this] { http_->stop(); });
    // Well past the deadline, with slack for sanitizer builds; the
    // client is closed afterwards so a hung stop() fails, not hangs.
    const bool returned = stopped.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    ::close(fd);
    stopped.get();
    EXPECT_TRUE(returned) << "stop() waited on an idle client";
}

TEST_F(ServerFixture, DribblingClientIsDroppedAtTheDeadline)
{
    // A client that sends its header one byte every 0.5 s. Every read
    // gets a byte in time, so only a deadline on the whole request,
    // not on each read, ever drops it.
    const std::string header =
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    const auto start = std::chrono::steady_clock::now();
    const int fd = connectAndSend(port(), header.substr(0, 1));
    ASSERT_GE(fd, 0);
    timeval drip{};
    drip.tv_usec = 500'000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &drip, sizeof drip);
    bool dropped = false;
    char byte;
    // Twelve drips (6 s) is three times the deadline.
    for (std::size_t i = 1; i <= 12 && !dropped; ++i) {
        // A read that ends before the 0.5 s timeout is the server's
        // close; a timeout means the connection is still open.
        dropped = ::recv(fd, &byte, 1, 0) >= 0 ||
                  (errno != EAGAIN && errno != EWOULDBLOCK) ||
                  ::send(fd, &header[i], 1, MSG_NOSIGNAL) != 1;
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ::close(fd);
    EXPECT_TRUE(dropped) << "the server kept a dribbling client for 6 s";
    EXPECT_LT(elapsed, std::chrono::milliseconds(3500));

    expectCompletes(port());
    drain();
    EXPECT_EQ(ingress_.completed(), 1u);
    EXPECT_EQ(ingress_.unresolved(), 0u);  // leaked=0
}

TEST_F(ServerFixture, TruncatedBodyIsNotDispatched)
{
    // The body is valid JSON on its own, but the client declared 100
    // bytes and half-closed after 37: the request must not be served.
    const int fd = connectAndSend(
        port(),
        "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Length: 100\r\n\r\n"
        "{\"prompt_tokens\":4,\"output_tokens\":2}");
    ASSERT_GE(fd, 0);
    ::shutdown(fd, SHUT_WR);
    const std::string response = readUntilClosed(fd, 5);
    EXPECT_NE(response.rfind("HTTP/1.1 200 ", 0), 0u) << response;
    EXPECT_EQ(ingress_.accepted(), 0u);

    expectCompletes(port());
    drain();
    EXPECT_EQ(ingress_.accepted(), 1u);
    EXPECT_EQ(ingress_.unresolved(), 0u);  // leaked=0
}

TEST_F(ServerFixture, ShutdownDrainsAndRejectsNewWork)
{
    EXPECT_EQ(httpRequest(port(), "POST", "/v1/admin/shutdown").status,
              202);
    // A submit after shutdown is terminally rejected (503 or a
    // rejected record, depending on when the drain lands).
    const HttpResult result =
        httpRequest(port(), "POST", "/v1/completions",
                    "{\"prompt_tokens\": 64}");
    EXPECT_TRUE(result.status == 503 || result.status == 200);
}

}  // namespace
}  // namespace splitwise::server
