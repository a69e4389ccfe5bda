#include "engine/kv_transfer.h"

#include <algorithm>
#include <cmath>

#include "hw/interconnect.h"
#include "sim/log.h"

namespace splitwise::engine {

KvTransferEngine::KvTransferEngine(sim::Simulator& simulator,
                                   model::LlmConfig llm,
                                   std::int64_t layerwise_threshold_tokens,
                                   double compression_ratio)
    : simulator_(simulator), llm_(std::move(llm)),
      layerwiseThreshold_(layerwise_threshold_tokens),
      compressionRatio_(compression_ratio)
{
}

void
KvTransferEngine::registerMachine(Machine* machine)
{
    if (machine->id() != static_cast<int>(ports_.size()))
        sim::fatal("KvTransferEngine: register machines in id order");
    ports_.emplace_back().machine = machine;
}

KvTransferEngine::Port&
KvTransferEngine::port(int machine_id)
{
    return ports_.at(static_cast<std::size_t>(machine_id));
}

void
KvTransferEngine::injectLinkFault(int machine_id, sim::TimeUs from,
                                  sim::TimeUs until)
{
    if (until <= from)
        sim::fatal("KvTransferEngine::injectLinkFault: empty window");
    port(machine_id).linkWindows.push_back({from, until, 0.0});
}

void
KvTransferEngine::injectLinkDegrade(int machine_id, sim::TimeUs from,
                                    sim::TimeUs until, double bandwidth_factor)
{
    if (until <= from)
        sim::fatal("KvTransferEngine::injectLinkDegrade: empty window");
    if (bandwidth_factor <= 0.0 || bandwidth_factor > 1.0)
        sim::fatal("KvTransferEngine::injectLinkDegrade: factor must be "
                   "in (0, 1]");
    port(machine_id).linkWindows.push_back({from, until, bandwidth_factor});
}

double
KvTransferEngine::degradeFactorAt(const Port& src, const Port& dst,
                                  sim::TimeUs at)
{
    double factor = 1.0;
    for (const Port* p : {&src, &dst}) {
        for (const LinkWindow& w : p->linkWindows) {
            if (w.factor > 0.0 && w.from <= at && at < w.until)
                factor = std::min(factor, w.factor);
        }
    }
    return factor;
}

bool
KvTransferEngine::linkFaultIn(const Port& src, const Port& dst,
                              sim::TimeUs start, sim::TimeUs end)
{
    for (const Port* p : {&src, &dst}) {
        for (const LinkWindow& w : p->linkWindows) {
            if (w.factor == 0.0 && w.from < end && start < w.until)
                return true;
        }
    }
    return false;
}

const model::TransferModel&
KvTransferEngine::modelFor(const Machine& src, const Machine& dst)
{
    const auto key = std::make_pair(src.spec().name, dst.spec().name);
    auto it = models_.find(key);
    if (it == models_.end()) {
        const hw::LinkSpec link = hw::linkBetween(src.spec(), dst.spec());
        it = models_
                 .emplace(key, model::TransferModel(llm_, link,
                                                    layerwiseThreshold_,
                                                    compressionRatio_))
                 .first;
    }
    return it->second;
}

sim::TimeUs
KvTransferEngine::interferenceFor(Machine& src, LiveRequest* request,
                                  sim::TimeUs prompt_compute)
{
    const auto dst = static_cast<std::size_t>(request->tokenMachine);
    if (dst >= ports_.size())
        return 0;
    const auto& model = modelFor(src, *ports_[dst].machine);
    if (!model.useLayerwise(request->spec.promptTokens))
        return 0;
    return model.layerwiseInterference(request->spec.promptTokens,
                                       prompt_compute);
}

void
KvTransferEngine::startTransfer(LiveRequest* request, Machine* src,
                                Machine* dst, sim::TimeUs prompt_compute)
{
    if (src == dst)
        sim::panic("KvTransferEngine: src == dst");
    request->phase = RequestPhase::kTransferring;
    if (trace_)
        trace_->transition(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "kv_transfer", simulator_.now(),
            {{"src", src->id()}, {"dst", dst->id()}});
    if (spans_)
        spans_->transition(request->spans,
                           telemetry::SpanPhase::kKvTransfer,
                           simulator_.now());
    if (dst->failed()) {
        // Destination died between routing and prompt completion:
        // continue the decode locally on the prompt machine.
        request->tokenMachine = src->id();
        src->acceptTransferred(request);
        return;
    }
    // Intermediate flow point: the request-track "kv_transfer" span
    // just opened, linking the prompt machine's handoff arrow through
    // the transfer span to the token machine.
    if (trace_)
        trace_->flowStep(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "kv_handoff", simulator_.now(), request->spec.id);
    // KV for the accumulated context plus the next generated token
    // must land on the destination before decoding resumes.
    if (!dst->reserveKv(request, request->contextTokens() + 1)) {
        ++stats_.memoryStalls;
        if (trace_)
            trace_->instant(
                telemetry::TraceRecorder::requestTrack(request->spec.id),
                "kv_memory_stall", simulator_.now(), {{"dst", dst->id()}});
        if (spans_)
            spans_->transition(request->spans,
                               telemetry::SpanPhase::kKvStall,
                               simulator_.now());
        port(dst->id()).waiting.push_back(
            {request, src, prompt_compute, request->restartEpoch});
        return;
    }
    launch(request, src, dst, prompt_compute);
}

void
KvTransferEngine::launch(LiveRequest* request, Machine* src, Machine* dst,
                         sim::TimeUs prompt_compute, int attempt)
{
    // Re-enter the transfer phase: a no-op on the first attempt, and
    // the stall/backoff-to-wire transition on later ones.
    if (spans_)
        spans_->transition(request->spans,
                           telemetry::SpanPhase::kKvTransfer,
                           simulator_.now());
    const auto& model = modelFor(*src, *dst);
    const auto plan = model.plan(request->spec.promptTokens, prompt_compute);

    Port& src_port = port(src->id());
    Port& dst_port = port(dst->id());
    const sim::TimeUs start = std::max(
        {simulator_.now(), src_port.nicFreeAt, dst_port.nicFreeAt});

    sim::TimeUs visible = plan.visibleUs;
    const double factor = degradeFactorAt(src_port, dst_port, start);
    if (factor < 1.0) {
        visible = static_cast<sim::TimeUs>(
            static_cast<double>(visible) / factor);
        ++stats_.degradedTransfers;
    }

    // An attempt dies at its timeout, or - when its wire time crosses
    // an injected fault window - at the end of the wasted attempt.
    const bool timed_out =
        retry_.timeoutUs > 0 && visible > retry_.timeoutUs;
    const sim::TimeUs end =
        start + (timed_out ? retry_.timeoutUs : visible);
    const bool faulted =
        !timed_out && linkFaultIn(src_port, dst_port, start, end);
    src_port.nicFreeAt = end;
    dst_port.nicFreeAt = end;

    const bool succeeds = !timed_out && !faulted;
    if (succeeds) {
        ++stats_.transfers;
        if (plan.layerwise)
            ++stats_.layerwiseTransfers;
        stats_.bytesMoved += model.kvBytes(request->spec.promptTokens);
        stats_.totalVisibleUs += visible;
    }

    ++inFlight_;
    const std::uint32_t epoch = request->restartEpoch;
    // Fits EventAction's inline buffer (asserted in
    // event_action_test.cc): no allocation per delivery event.
    simulator_.post(end, [this, request, src, dst, epoch, prompt_compute,
                          attempt, timed_out, succeeds] {
        --inFlight_;
        if (request->restartEpoch != epoch) {
            // A machine failure restarted the request. The failure
            // handler released this incarnation's copies, and the new
            // incarnation may already hold fresh blocks under the same
            // request id - possibly on these very machines - so the
            // stale delivery must not touch any KV.
            return;
        }
        if (dst->failed() || src->failed()) {
            // An endpoint died mid-flight and nothing restarted the
            // request: the surviving endpoint's copy is useless -
            // release it so the blocks cannot leak.
            if (!src->failed())
                src->releaseKv(request);
            if (!dst->failed())
                dst->releaseKv(request);
            return;
        }
        if (!succeeds) {
            if (timed_out)
                ++stats_.transferTimeouts;
            else
                ++stats_.transferFaults;
            if (trace_)
                trace_->instant(
                    telemetry::TraceRecorder::requestTrack(request->spec.id),
                    timed_out ? "kv_timeout" : "kv_fault", simulator_.now(),
                    {{"attempt", attempt}});
            handleAttemptFailure(request, src, dst, prompt_compute,
                                 attempt);
            return;
        }
        // The prompt machine can drop its copy; the destination
        // owns the cache now.
        if (!src->failed())
            src->releaseKv(request);
        // The destination's first decode iteration will close the
        // cross-machine flow arrow for this request.
        if (trace_)
            request->kvFlowPending = true;
        dst->acceptTransferred(request);
    });
}

void
KvTransferEngine::handleAttemptFailure(LiveRequest* request, Machine* src,
                                       Machine* dst,
                                       sim::TimeUs prompt_compute,
                                       int attempt)
{
    if (attempt >= retry_.maxRetries) {
        ++stats_.transferAborts;
        abortTransfer(request, src, dst);
        return;
    }
    ++stats_.transferRetries;
    const auto backoff = static_cast<sim::TimeUs>(
        static_cast<double>(retry_.backoffBaseUs) *
        std::pow(retry_.backoffMultiplier, attempt));
    if (trace_)
        trace_->instant(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "kv_retry", simulator_.now(),
            {{"attempt", attempt + 1}, {"backoff_us", backoff}});
    if (spans_)
        spans_->transition(request->spans,
                           telemetry::SpanPhase::kKvBackoff,
                           simulator_.now());
    const std::uint32_t epoch = request->restartEpoch;
    simulator_.postAfter(
        backoff, [this, request, src, dst, prompt_compute, attempt, epoch] {
            // A failure handler restarted the request during the
            // backoff; the new incarnation owns its own transfer.
            if (request->restartEpoch != epoch)
                return;
            if (src->failed() || dst->failed()) {
                // An endpoint died during the backoff and nobody
                // restarted the request: give up cleanly so the
                // surviving endpoint's KV copy cannot leak.
                ++stats_.transferAborts;
                abortTransfer(request, src, dst);
                return;
            }
            launch(request, src, dst, prompt_compute, attempt + 1);
        });
}

void
KvTransferEngine::abortTransfer(LiveRequest* request, Machine* src,
                                Machine* dst)
{
    if (trace_)
        trace_->instant(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "kv_abort", simulator_.now(),
            {{"src", src->id()}, {"dst", dst->id()}});
    if (!dst->failed())
        dst->releaseKv(request);
    if (!src->failed())
        src->releaseKv(request);
    if (onAbort_)
        onAbort_(request);
}

std::size_t
KvTransferEngine::waitingTransfers() const
{
    std::size_t n = 0;
    for (const Port& p : ports_)
        n += p.waiting.size();
    return n;
}

void
KvTransferEngine::onMemoryFreed(Machine* dst)
{
    std::vector<Pending>& queue = port(dst->id()).waiting;
    if (dst->failed()) {
        queue.clear();
        return;
    }
    std::size_t head = 0;
    for (; head < queue.size(); ++head) {
        Pending& pending = queue[head];
        if (pending.request->restartEpoch != pending.epoch) {
            // Restarted after a failure; the new incarnation is
            // routed elsewhere.
            continue;
        }
        if (!dst->reserveKv(pending.request,
                            pending.request->contextTokens() + 1))
            break;
        launch(pending.request, pending.src, dst, pending.promptCompute);
    }
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(head));
}

}  // namespace splitwise::engine
