#ifndef SPLITWISE_CORE_INGRESS_H_
#define SPLITWISE_CORE_INGRESS_H_

/**
 * @file
 * The thread-safe request-ingress boundary into the event engine.
 *
 * The simulator, the cluster, and everything below them are strictly
 * single-threaded. Ingress is the one concurrency seam in front of
 * them: client threads submit(), cancel(), and inspect() into a
 * mutex-protected mailbox and wake the serving clock; the serving
 * thread (Cluster::serve) drains the mailbox only at quiescent
 * points — after every event sharing a timestamp has fired — stamps
 * each operation with a strictly increasing simulated time, and
 * posts it as an ordinary arrival-priority event. Everything past
 * the mailbox therefore runs exactly as an offline replay would,
 * which is what makes a live session capturable and bit-exact to
 * re-run (see core/recording.h).
 *
 * Conservation contract: every accepted submit() reaches exactly one
 * terminal streaming update — finished, shed by admission control
 * (rejected), or rejected at shutdown — and
 *     accepted() == completed() + rejectedByAdmission()
 *                 + rejectedAtShutdown()
 * holds once serve() has returned. The concurrent-ingress TSan test
 * pins this.
 */

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/time.h"

namespace splitwise::core {

class Cluster;
class Ingress;
struct InspectDone;

/** A live client request: everything but the arrival time, which the
 *  serving thread stamps when it drains the submission. */
struct IngressRequest {
    std::int64_t promptTokens = 0;
    /** Token budget; a later cancel clamps it to end the stream. */
    std::int64_t outputTokens = 1;
    /** 0 = interactive; higher values shed first under brownout. */
    int priority = 0;
    /** Multi-turn session id; 0 = standalone (prefix-cache reuse). */
    std::uint64_t session = 0;
    /** Zero-based turn index within the session. */
    int turn = 0;
};

/** One streaming progress update for a live request. */
struct TokenUpdate {
    std::uint64_t requestId = 0;
    /** Tokens generated so far (1-based; monotone per request). */
    std::int64_t tokensGenerated = 0;
    /** The request produced its final token (terminal). */
    bool finished = false;
    /**
     * The request never ran: shed by admission control, or refused
     * because serving had already shut down (terminal).
     */
    bool rejected = false;
    /** Simulated time of the update (0 for shutdown rejections). */
    sim::TimeUs at = 0;
};

/**
 * Per-token streaming callback. Invoked on the serving thread (or,
 * for post-shutdown rejections, on the submitting thread), so it
 * must be fast and must not call back into the same Ingress.
 */
using StreamCallback = std::function<void(const TokenUpdate&)>;

/**
 * RAII owner of one submitted request: dropping the handle cancels
 * the request (the stream ends at the next token boundary), detach()
 * lets it run to completion unowned. Movable, not copyable. Returned
 * [[nodiscard]] from Ingress::submit — silently discarding it would
 * cancel the request immediately.
 */
class [[nodiscard]] RequestHandle {
  public:
    RequestHandle() = default;

    RequestHandle(RequestHandle&& other) noexcept
        : ingress_(other.ingress_), id_(other.id_)
    {
        other.ingress_ = nullptr;
        other.id_ = 0;
    }

    RequestHandle&
    operator=(RequestHandle&& other) noexcept
    {
        if (this != &other) {
            cancel();
            ingress_ = other.ingress_;
            id_ = other.id_;
            other.ingress_ = nullptr;
            other.id_ = 0;
        }
        return *this;
    }

    RequestHandle(const RequestHandle&) = delete;
    RequestHandle& operator=(const RequestHandle&) = delete;

    ~RequestHandle() { cancel(); }

    /** The request's id; 0 for an empty (rejected/moved) handle. */
    std::uint64_t id() const { return id_; }

    /** True when this handle owns a submitted request. */
    bool valid() const { return id_ != 0; }

    /**
     * Request cancellation: the stream finishes at the next token
     * boundary (requests already finished are unaffected). The
     * handle disarms; terminal updates still arrive through the
     * streaming callback. Idempotent.
     */
    void cancel();

    /**
     * Let the request run to completion unowned and disarm the
     * destructor's auto-cancel.
     *
     * @return the request id, for a later Ingress::cancel().
     */
    [[nodiscard]] std::uint64_t
    detach()
    {
        const std::uint64_t id = id_;
        ingress_ = nullptr;
        id_ = 0;
        return id;
    }

  private:
    friend class Ingress;
    RequestHandle(Ingress* ingress, std::uint64_t id)
        : ingress_(ingress), id_(id)
    {
    }

    Ingress* ingress_ = nullptr;
    std::uint64_t id_ = 0;
};

/**
 * The mailbox between client threads and one Cluster::serve() loop.
 *
 * Lifecycle: construct, hand to Cluster::serve() (directly or via
 * core::runLive) on a serving thread, submit()/cancel()/inspect()
 * from any number of client threads, shutdown() to drain and stop.
 * One serve loop per Ingress; not reusable across runs.
 */
class Ingress {
  public:
    Ingress() = default;
    Ingress(const Ingress&) = delete;
    Ingress& operator=(const Ingress&) = delete;

    /**
     * Submit a request for serving.
     *
     * @param on_token Optional per-token streaming callback; see
     *     StreamCallback for the threading contract.
     * @return Owner handle; invalid (and, when a callback was given,
     *     already terminally rejected) when serving has shut down.
     */
    [[nodiscard]] RequestHandle submit(const IngressRequest& request,
                                       StreamCallback on_token = {});

    /**
     * Cancel a request by id (from RequestHandle::id()/detach()).
     * The request finishes at its next token boundary; unknown or
     * already-finished ids are a deterministic no-op. Thread-safe.
     */
    void cancel(std::uint64_t request_id);

    /**
     * Stop accepting submissions and let the serve loop drain: it
     * returns once every admitted request has finished. Thread-safe,
     * idempotent.
     */
    void shutdown();

    /** True once shutdown() has been called. */
    bool
    shutdownRequested() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return shutdownRequested_;
    }

    /**
     * Run @p fn against the serving cluster at its next quiescent
     * point, blocking until it completes — the race-free way to
     * snapshot metrics from another thread. Called before the serve
     * loop starts, it waits for the loop's first quiescent point.
     *
     * @return false (without running @p fn) once serving has ended.
     */
    bool inspect(const std::function<void(const Cluster&)>& fn);

    /** Submissions accepted into the mailbox. */
    std::uint64_t
    accepted() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.accepted;
    }

    /** Requests that produced their final token. */
    std::uint64_t
    completed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.completed;
    }

    /** Requests shed by the cluster's admission control. */
    std::uint64_t
    rejectedByAdmission() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.rejectedByAdmission;
    }

    /** Accepted submissions drained after serving already ended. */
    std::uint64_t
    rejectedAtShutdown() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.rejectedAtShutdown;
    }

    /** Cancel operations accepted (including no-op cancels). */
    std::uint64_t
    cancelsRequested() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.cancels;
    }

    /**
     * Accepted submissions not yet terminally resolved. Zero once
     * serve() has returned — the no-leaked-requests gate the server
     * binary and the CI smoke assert.
     */
    std::uint64_t
    unresolved() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_.accepted - counters_.completed -
               counters_.rejectedByAdmission - counters_.rejectedAtShutdown;
    }

  private:
    friend class Cluster;
    friend class RequestHandle;

    /** One queued client operation, drained FIFO. */
    struct Op {
        enum class Kind { kSubmit, kCancel, kInspect };
        Kind kind = Kind::kSubmit;
        std::uint64_t id = 0;
        IngressRequest request;
        StreamCallback onToken;
        /** inspect(): closure + completion flag on the caller's
         *  stack; the caller blocks until the serve loop signals. */
        const std::function<void(const Cluster&)>* inspectFn = nullptr;
        InspectDone* inspectDone = nullptr;
    };

    /** Lifecycle counters, guarded by mu_. */
    struct Counters {
        std::uint64_t accepted = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejectedByAdmission = 0;
        std::uint64_t rejectedAtShutdown = 0;
        std::uint64_t cancels = 0;
    };

    // --- serving-thread interface (Cluster::serve) ---

    /** Bind the serving clock and open the mailbox for draining. */
    void beginServe(sim::Clock* clock);

    /** Swap the queued operations into @p out; true when any. */
    bool takeOps(std::vector<Op>* out);

    /** True when operations are queued (post-drain re-check). */
    bool
    hasQueued() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return !mailbox_.empty();
    }

    /**
     * Serving ended: reject straggler submissions (terminal update
     * on this thread), run straggler inspections against
     * @p cluster, drop straggler cancels.
     */
    void endServe(const Cluster& cluster);

    /** Run one drained inspect op against @p cluster and signal the
     *  blocked caller. */
    static void runInspect(const Op& op, const Cluster& cluster);

    /** The serve loop admitted @p id; future tokens stream to @p cb. */
    void onAdmitQueued(std::uint64_t id, StreamCallback cb);

    /** Dispatch one streaming update to its callback. */
    void dispatch(const TokenUpdate& update);

    /** The request produced its final token. */
    void onFinished(std::uint64_t id);

    /** Admission control shed the request at @p at. */
    void onRejected(std::uint64_t id, sim::TimeUs at);

    enum class State { kIdle, kServing, kDone };

    mutable std::mutex mu_;
    State state_ = State::kIdle;
    bool shutdownRequested_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<Op> mailbox_;
    sim::Clock* clock_ = nullptr;

    Counters counters_;
    /** id → streaming callback; serving-thread only. */
    std::unordered_map<std::uint64_t, StreamCallback> callbacks_;
};

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_INGRESS_H_
