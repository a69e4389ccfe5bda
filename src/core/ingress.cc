#include "core/ingress.h"

#include <condition_variable>

#include "sim/log.h"

namespace splitwise::core {

/**
 * Completion rendezvous for one inspect(): lives on the inspecting
 * thread's stack; the serving thread signals after running the
 * closure.
 */
struct InspectDone {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;

    void
    signal()
    {
        // Notify under the lock: the waiter destroys *this once woken.
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return done; });
    }
};

void
RequestHandle::cancel()
{
    if (ingress_ && id_ != 0)
        ingress_->cancel(id_);
    ingress_ = nullptr;
    id_ = 0;
}

RequestHandle
Ingress::submit(const IngressRequest& request, StreamCallback on_token)
{
    std::uint64_t id = 0;
    sim::Clock* clock = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (state_ != State::kDone && !shutdownRequested_) {
            id = nextId_++;
            Op op;
            op.kind = Op::Kind::kSubmit;
            op.id = id;
            op.request = request;
            op.onToken = std::move(on_token);
            mailbox_.push_back(std::move(op));
            ++counters_.accepted;
            clock = clock_;
        }
    }
    if (id == 0) {
        // Serving is over (or draining): terminally reject on the
        // caller's thread so every submission still resolves.
        if (on_token) {
            TokenUpdate update;
            update.rejected = true;
            on_token(update);
        }
        return RequestHandle();
    }
    if (clock)
        clock->wake();
    return RequestHandle(this, id);
}

void
Ingress::cancel(std::uint64_t request_id)
{
    if (request_id == 0)
        return;
    sim::Clock* clock = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (state_ == State::kDone)
            return;
        Op op;
        op.kind = Op::Kind::kCancel;
        op.id = request_id;
        mailbox_.push_back(std::move(op));
        ++counters_.cancels;
        clock = clock_;
    }
    if (clock)
        clock->wake();
}

void
Ingress::shutdown()
{
    sim::Clock* clock = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdownRequested_ = true;
        clock = clock_;
    }
    if (clock)
        clock->wake();
}

bool
Ingress::inspect(const std::function<void(const Cluster&)>& fn)
{
    InspectDone done;
    sim::Clock* clock = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Queued before serving starts, the op is answered by the
        // serve loop's first drain, like a queued submission.
        if (state_ == State::kDone)
            return false;
        Op op;
        op.kind = Op::Kind::kInspect;
        op.inspectFn = &fn;
        op.inspectDone = &done;
        mailbox_.push_back(std::move(op));
        clock = clock_;
    }
    if (clock)
        clock->wake();
    done.wait();
    return true;
}

void
Ingress::beginServe(sim::Clock* clock)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kIdle)
        sim::fatal("Ingress: one serve loop per Ingress instance");
    state_ = State::kServing;
    clock_ = clock;
}

bool
Ingress::takeOps(std::vector<Op>* out)
{
    out->clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (mailbox_.empty())
        return false;
    mailbox_.swap(*out);
    return true;
}

void
Ingress::endServe(const Cluster& cluster)
{
    std::vector<Op> stragglers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        state_ = State::kDone;
        clock_ = nullptr;
        stragglers.swap(mailbox_);
    }
    // Submissions that raced past the shutdown flag but were never
    // drained resolve terminally here; queued inspections still see
    // the (post-run) cluster; cancels have nothing left to cancel.
    for (Op& op : stragglers) {
        switch (op.kind) {
          case Op::Kind::kSubmit: {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.rejectedAtShutdown;
            }
            if (op.onToken) {
                TokenUpdate update;
                update.requestId = op.id;
                update.rejected = true;
                op.onToken(update);
            }
            break;
          }
          case Op::Kind::kInspect:
            runInspect(op, cluster);
            break;
          case Op::Kind::kCancel:
            break;
        }
    }
}

void
Ingress::runInspect(const Op& op, const Cluster& cluster)
{
    (*op.inspectFn)(cluster);
    op.inspectDone->signal();
}

void
Ingress::onAdmitQueued(std::uint64_t id, StreamCallback cb)
{
    if (cb)
        callbacks_.emplace(id, std::move(cb));
}

void
Ingress::dispatch(const TokenUpdate& update)
{
    const auto it = callbacks_.find(update.requestId);
    if (it != callbacks_.end())
        it->second(update);
}

void
Ingress::onFinished(std::uint64_t id)
{
    callbacks_.erase(id);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.completed;
}

void
Ingress::onRejected(std::uint64_t id, sim::TimeUs at)
{
    const auto it = callbacks_.find(id);
    if (it != callbacks_.end()) {
        TokenUpdate update;
        update.requestId = id;
        update.rejected = true;
        update.at = at;
        it->second(update);
        callbacks_.erase(it);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rejectedByAdmission;
}

}  // namespace splitwise::core
