#include "server/serving.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>

#include "core/cluster.h"
#include "core/json.h"
#include "sim/log.h"
#include "telemetry/metrics_registry.h"

namespace splitwise::server {

namespace {

/**
 * Mailbox between the serving thread (ingress streaming callback)
 * and the HTTP connection thread writing the chunked response.
 * shared_ptr-owned: the callback may outlive the connection when the
 * client hangs up mid-stream.
 */
struct TokenMailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<core::TokenUpdate> updates;
    bool terminal = false;

    void
    push(const core::TokenUpdate& update)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            updates.push_back(update);
            if (update.finished || update.rejected)
                terminal = true;
        }
        cv.notify_one();
    }

    /** Pop one update, blocking. @return false once drained after
     *  the terminal update. */
    bool
    pop(core::TokenUpdate* out)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !updates.empty() || terminal; });
        if (updates.empty())
            return false;
        *out = updates.front();
        updates.pop_front();
        return true;
    }
};

std::string
tokenLine(const core::TokenUpdate& update)
{
    using core::JsonValue;
    JsonValue row = JsonValue::makeObject();
    row.set("id", JsonValue(static_cast<std::int64_t>(update.requestId)));
    if (update.rejected) {
        row.set("rejected", JsonValue(true));
    } else {
        row.set("tokens", JsonValue(update.tokensGenerated));
        row.set("finished", JsonValue(update.finished));
        row.set("at_us", JsonValue(static_cast<std::int64_t>(update.at)));
    }
    return row.dump() + "\n";
}

/** A whole-number request field in [lo, hi]; fatal() otherwise,
 *  which the caller answers with 400. */
std::int64_t
intField(const core::JsonValue& body, const char* key,
         std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
         std::int64_t hi = std::numeric_limits<std::int64_t>::max())
{
    const core::JsonValue& v = body.at(key);
    const std::int64_t n = v.asInt();
    if (static_cast<double>(n) != v.asNumber())
        sim::fatal(std::string(key) + " must be an integer");
    if (n < lo || n > hi)
        sim::fatal(std::string(key) + " out of range");
    return n;
}

}  // namespace

void
CompletionService::handle(const HttpRequest& request,
                          ResponseWriter& writer)
{
    if (request.method == "POST" && request.path == "/v1/completions") {
        handleCompletion(request, writer);
        return;
    }
    if (request.method == "DELETE" &&
        request.path.rfind("/v1/completions/", 0) == 0) {
        handleCancel(request.path, writer);
        return;
    }
    if (request.method == "GET" && request.path == "/v1/metrics") {
        handleMetrics(writer);
        return;
    }
    if (request.method == "POST" &&
        request.path == "/v1/admin/shutdown") {
        ingress_.shutdown();
        writer.writeFull(202, "application/json", "{\"draining\":true}");
        return;
    }
    writer.writeFull(404, "application/json",
                     "{\"error\":\"unknown route\"}");
}

void
CompletionService::handleCompletion(const HttpRequest& request,
                                    ResponseWriter& writer)
{
    core::IngressRequest spec;
    try {
        const core::JsonValue body = core::JsonValue::parse(request.body);
        constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
        constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
        spec.promptTokens = intField(body, "prompt_tokens");
        if (body.has("output_tokens"))
            spec.outputTokens = intField(body, "output_tokens");
        if (body.has("priority")) {
            spec.priority =
                static_cast<int>(intField(body, "priority", kIntMin, kIntMax));
        }
        if (body.has("session")) {
            spec.session =
                static_cast<std::uint64_t>(intField(body, "session", 0));
        }
        if (body.has("turn")) {
            spec.turn =
                static_cast<int>(intField(body, "turn", kIntMin, kIntMax));
        }
    } catch (const std::exception& e) {
        writer.writeFull(400, "application/json",
                         std::string("{\"error\":\"bad request body: ") +
                             e.what() + "\"}");
        return;
    }
    if (spec.promptTokens < 1 || spec.outputTokens < 1) {
        writer.writeFull(400, "application/json",
                         "{\"error\":\"prompt_tokens and output_tokens "
                         "must be >= 1\"}");
        return;
    }

    auto mailbox = std::make_shared<TokenMailbox>();
    core::RequestHandle handle = ingress_.submit(
        spec, [mailbox](const core::TokenUpdate& update) {
            mailbox->push(update);
        });
    if (!handle.valid()) {
        writer.writeFull(503, "application/json",
                         "{\"error\":\"shutting down\"}");
        return;
    }

    if (!writer.beginChunked(200, "application/x-ndjson")) {
        // Client vanished before the first byte; the handle's
        // destructor cancels the request.
        return;
    }
    core::TokenUpdate update;
    while (mailbox->pop(&update)) {
        if (!writer.writeChunk(tokenLine(update)))
            return;  // Hang-up mid-stream: auto-cancel via handle.
        if (update.finished || update.rejected)
            break;
    }
    writer.endChunked();
    // The stream reached its terminal update: nothing left to cancel.
    (void)handle.detach();
}

void
CompletionService::handleCancel(const std::string& path,
                                ResponseWriter& writer)
{
    const std::string id_text =
        path.substr(std::string("/v1/completions/").size());
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (id == 0 || end == nullptr || *end != '\0') {
        writer.writeFull(400, "application/json",
                         "{\"error\":\"bad request id\"}");
        return;
    }
    ingress_.cancel(id);
    writer.writeFull(202, "application/json", "{\"cancelling\":true}");
}

void
CompletionService::handleMetrics(ResponseWriter& writer)
{
    std::string body;
    const bool live = ingress_.inspect([&body](const core::Cluster& cluster) {
        using core::JsonValue;
        JsonValue doc = JsonValue::makeObject();
        doc.set("simulated_us",
                JsonValue(static_cast<std::int64_t>(
                    cluster.simulator().now())));
        const telemetry::MetricsRegistry& registry = cluster.metrics();
        const std::vector<double> values = registry.sampleValues();
        JsonValue metrics = JsonValue::makeObject();
        for (std::size_t i = 0; i < values.size(); ++i)
            metrics.set(registry.names()[i], JsonValue(values[i]));
        doc.set("metrics", std::move(metrics));
        body = doc.dump();
    });
    if (!live) {
        writer.writeFull(503, "application/json",
                         "{\"error\":\"no serve loop\"}");
        return;
    }
    writer.writeFull(200, "application/json", body);
}

}  // namespace splitwise::server
