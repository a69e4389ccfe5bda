#include "engine/machine.h"

#include <algorithm>

#include "sim/log.h"

namespace splitwise::engine {

namespace {

/**
 * Decode batch size maximizing generated tokens/s on this machine.
 * Throughput rises with batch until the quadratic batching penalty
 * (Fig. 5b) dominates; admitting more residents past that point
 * *lowers* throughput, so the MLS caps its batch there.
 */
MlsConfig
withThroughputOptimalBatch(MlsConfig config, const model::PerfModel& perf)
{
    constexpr std::int64_t kCtxPerSeq = 1200;
    int best_b = 1;
    double best_thpt = 0.0;
    for (int b = 1; b <= config.maxBatchSize; ++b) {
        const double thpt =
            b / sim::usToSeconds(perf.tokenTime(b, b * kCtxPerSeq));
        if (thpt > best_thpt) {
            best_thpt = thpt;
            best_b = b;
        }
    }
    config.maxBatchSize = std::min(config.maxBatchSize, best_b);
    return config;
}

}  // namespace

Machine::Machine(sim::Simulator& simulator, int id, hw::MachineSpec spec,
                 const model::PerfModel& perf,
                 const model::MemoryModel& memory, MlsConfig mls_config,
                 Callbacks callbacks)
    : simulator_(simulator), id_(id), spec_(std::move(spec)), perf_(perf),
      power_(spec_.gpu),
      mls_(withThroughputOptimalBatch(mls_config, perf),
           memory.kvCapacityTokens()),
      callbacks_(std::move(callbacks))
{
    if (!memory.weightsFit())
        sim::fatal("Machine " + spec_.name + ": model weights do not fit");
    stats_.activeTokens.start(simulator_.now(), 0);
    // A preempted resident's KV is dropped and it recomputes its
    // context here, so this machine becomes its prompt machine (a
    // crash here must restart it) and its attribution returns to the
    // queue phase.
    mls_.setPreemptHook([this](LiveRequest* victim) {
        victim->promptMachine = id_;
        if (spans_)
            spans_->transition(victim->spec.id, telemetry::SpanPhase::kQueue,
                               simulator_.now());
    });
}

void
Machine::submitPrompt(LiveRequest* request)
{
    if (failed_)
        sim::panic("Machine::submitPrompt on a failed machine");
    if (parked_)
        sim::panic("Machine::submitPrompt on a parked machine");
    request->promptMachine = id_;
    // A routed-in prefix hit must be pinned now, while the entry
    // still exists: it may be evicted between routing and admission
    // otherwise. A failed pin degrades to a full prefill.
    if (request->cachedPrefixTokens > 0) {
        if (mls_.blocks().acquirePrefix(request->spec.session, *request)) {
            request->promptProcessed = request->cachedPrefixTokens;
        } else {
            request->cachedPrefixTokens = 0;
        }
    }
    if (trace_)
        trace_->transition(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "queued", simulator_.now(),
            {{"machine", id_}, {"restarts", request->restarts}});
    if (spans_)
        spans_->transition(request->spec.id, telemetry::SpanPhase::kQueue,
                           simulator_.now());
    mls_.enqueuePrompt(request);
    kick();
}

bool
Machine::reserveKv(LiveRequest* request, std::int64_t tokens)
{
    if (failed_ || parked_)
        return false;
    return mls_.blocks().allocate(*request, tokens);
}

void
Machine::releaseKv(LiveRequest* request)
{
    mls_.blocks().release(*request);
    if (callbacks_.onMemoryFreed)
        callbacks_.onMemoryFreed(*this);
    kick();
}

void
Machine::acceptTransferred(LiveRequest* request)
{
    if (failed_)
        sim::panic("Machine::acceptTransferred on a failed machine");
    if (parked_)
        sim::panic("Machine::acceptTransferred on a parked machine");
    if (trace_)
        trace_->transition(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "decode", simulator_.now(), {{"machine", id_}});
    if (spans_)
        spans_->transition(request->spec.id, telemetry::SpanPhase::kDecode,
                           simulator_.now());
    mls_.addResident(request);
    kick();
}

std::int64_t
Machine::promptQueueDepthTokens() const
{
    return mls_.pendingPromptTokens() + runningPromptTokens_;
}

std::int64_t
Machine::tokenLoadTokens() const
{
    // Committed load only: reclaimable (refcount-zero) cached
    // prefixes yield to real traffic, so JSQ must not see them.
    return mls_.blocks().committedTokens();
}

int
Machine::maxBatchWithinTbt(double tbt_ms) const
{
    if (cachedTbtBoundMs_ == tbt_ms)
        return cachedMaxBatch_;
    constexpr std::int64_t kCtxPerSeq = 1200;
    int lo = 1;
    int hi = mls_.config().maxBatchSize;
    if (sim::usToMs(perf_.tokenTime(hi, hi * kCtxPerSeq)) <= tbt_ms) {
        lo = hi;
    } else {
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            if (sim::usToMs(perf_.tokenTime(mid, mid * kCtxPerSeq)) <= tbt_ms)
                lo = mid;
            else
                hi = mid;
        }
    }
    cachedTbtBoundMs_ = tbt_ms;
    cachedMaxBatch_ = lo;
    return lo;
}

void
Machine::kick()
{
    if (busy_ || failed_ || parked_)
        return;
    startIteration();
}

void
Machine::fail()
{
    if (failed_)
        return;
    // The in-flight iteration dies with the machine: close its span
    // so the trace keeps matched begin/end pairs.
    if (busy_ && trace_)
        trace_->end(telemetry::TraceRecorder::machineTrack(id_),
                    simulator_.now());
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::machineTrack(id_),
                        "fail", simulator_.now());
    // A crash trumps a park: close the parked interval so downtime
    // is accounted as down, not parked, and let recover() bring the
    // machine back into service directly.
    if (parked_) {
        stats_.parkedUs += simulator_.now() - parkedSince_;
        parked_ = false;
    }
    failed_ = true;
    downSince_ = simulator_.now();
    ++epoch_;
    busy_ = false;
    mls_.clearAll();
    runningPromptTokens_ = 0;
    currentWatts_ = 0.0;
    stats_.activeTokens.set(simulator_.now(), 0);
}

void
Machine::recover()
{
    if (!failed_)
        return;
    failed_ = false;
    stats_.downUs += simulator_.now() - downSince_;
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::machineTrack(id_),
                        "recover", simulator_.now());
    stats_.activeTokens.set(simulator_.now(), 0);
    kick();
}

void
Machine::park()
{
    if (parked_)
        return;
    if (failed_)
        sim::panic("Machine::park on a failed machine");
    if (busy_ || mls_.hasWork() || mls_.blocks().residents() > 0)
        sim::panic("Machine::park with work on the machine");
    parked_ = true;
    parkedSince_ = simulator_.now();
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::machineTrack(id_),
                        "park", simulator_.now());
}

void
Machine::unpark()
{
    if (!parked_)
        return;
    parked_ = false;
    stats_.parkedUs += simulator_.now() - parkedSince_;
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::machineTrack(id_),
                        "unpark", simulator_.now());
    kick();
}

void
Machine::setPowerCap(double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        sim::fatal("Machine::setPowerCap: fraction must be in (0, 1]");
    powerCap_ = fraction;
}

void
Machine::setPerfScale(double scale)
{
    if (scale <= 0.0)
        sim::fatal("Machine::setPerfScale: scale must be positive");
    perfScale_ = scale;
}

void
Machine::startIteration()
{
    mls_.nextBatch(plan_);
    BatchPlan& plan = plan_;
    if (plan.empty()) {
        stats_.activeTokens.set(simulator_.now(), 0);
        return;
    }

    sim::TimeUs duration = perf_.iterationTime(plan.shape());
    if (perfScale_ != 1.0) {
        duration = static_cast<sim::TimeUs>(
            static_cast<double>(duration) * perfScale_);
    }

    // A power cap slows the batch down per Fig. 9: compute-bound
    // prompt phases pay roughly proportionally, bandwidth-bound token
    // phases only when capped below their natural (~half TDP) draw.
    // Mixed batches take the worst case across their phases.
    if (powerCap_ < 1.0) {
        double cap_mult = 1.0;
        if (!plan.prompts.empty()) {
            cap_mult = power_.capLatencyMultiplier(model::Phase::kPrompt,
                                                   powerCap_);
        }
        if (!plan.decodes.empty()) {
            cap_mult = std::max(
                cap_mult,
                power_.capLatencyMultiplier(model::Phase::kToken, powerCap_));
        }
        if (cap_mult != 1.0) {
            duration = static_cast<sim::TimeUs>(
                static_cast<double>(duration) * cap_mult);
        }
    }

    // Outbound layer-wise KV transfers steal compute cycles from the
    // prompt they overlap with (SIV-C interference).
    if (callbacks_.transferInterference) {
        for (auto* req : plan.prompts) {
            if (req->tokenMachine >= 0 && req->tokenMachine != id_)
                duration += callbacks_.transferInterference(*this, req, duration);
        }
    }

    busy_ = true;
    runningPromptTokens_ = plan.promptTokens;
    stats_.activeTokens.set(simulator_.now(), plan.activeTokens());

    // Energy: GPU draw depends on the phase mix; the platform
    // overhead is always drawn while iterating.
    const bool has_prompt = !plan.prompts.empty();
    const bool has_decode = !plan.decodes.empty();

    if (trace_) {
        const char* kind = has_prompt && has_decode ? "mixed_iter"
                           : has_prompt             ? "prompt_iter"
                                                    : "token_iter";
        trace_->begin(telemetry::TraceRecorder::machineTrack(id_), kind,
                      simulator_.now(),
                      {{"prompt_tokens", plan.promptTokens},
                       {"prompts", static_cast<int>(plan.prompts.size())},
                       {"decodes", static_cast<int>(plan.decodes.size())}});
        for (auto* req : plan.prompts) {
            trace_->transition(
                telemetry::TraceRecorder::requestTrack(req->spec.id),
                "prompt", simulator_.now(), {{"machine", id_}});
        }
        // Transferred-in requests complete their cross-machine flow
        // arrow here: the 'f' point must sit inside an open slice on
        // this machine's track, and the first decode iteration is
        // the first such slice after the handoff.
        if (trace_->hasPendingFlows()) {
            for (auto* req : plan.decodes) {
                if (trace_->takePendingFlow(req->spec.id)) {
                    trace_->flowEnd(
                        telemetry::TraceRecorder::machineTrack(id_),
                        "kv_handoff", simulator_.now(), req->spec.id);
                }
            }
        }
    }
    if (spans_) {
        for (auto* req : plan.prompts) {
            // A prefix hit computes only the suffix; attribute the
            // compute to its own phase so reports can separate cheap
            // (cache-assisted) prefills from full ones.
            spans_->transition(req->spec.id,
                               req->cachedPrefixTokens > 0
                                   ? telemetry::SpanPhase::kPrefixHit
                                   : telemetry::SpanPhase::kPrefill,
                               simulator_.now());
        }
    }
    double gpu_fraction = 0.0;
    if (has_prompt) {
        gpu_fraction = power_.promptPowerFraction(plan.promptTokens);
    }
    if (has_decode) {
        gpu_fraction = std::max(
            gpu_fraction,
            power_.tokenPowerFraction(static_cast<int>(plan.decodes.size())));
    }
    if (powerCap_ < 1.0)
        gpu_fraction = std::min(gpu_fraction, powerCap_);
    const double watts = power_.machinePowerWatts(spec_, gpu_fraction);
    currentWatts_ = watts;
    stats_.energyWh += watts * sim::usToSeconds(duration) / 3600.0;

    planDuration_ = duration;
    // The closure captures only (this, epoch): the plan itself stays
    // in plan_, reused every iteration, so scheduling allocates
    // nothing.
    simulator_.postAfter(duration,
                         [this, epoch = epoch_] { onIterationEvent(epoch); });
}

void
Machine::onIterationEvent(std::uint64_t epoch)
{
    // A failure between start and completion voids the iteration,
    // even when the machine recovered in the meantime.
    if (epoch != epoch_)
        return;
    completeIteration(plan_, planDuration_);
}

void
Machine::routePromptCompletion(LiveRequest* request,
                               sim::TimeUs prompt_compute)
{
    if (request->finished()) {
        // Single-output requests are done at the first token; the
        // KV-cache is never needed again.
        request->phase = RequestPhase::kDone;
        if (trace_)
            trace_->close(
                telemetry::TraceRecorder::requestTrack(request->spec.id),
                simulator_.now());
        mls_.blocks().release(*request);
        if (callbacks_.onMemoryFreed)
            callbacks_.onMemoryFreed(*this);
        if (callbacks_.onRequestDone)
            callbacks_.onRequestDone(*this, request);
        return;
    }
    if (request->tokenMachine < 0 || request->tokenMachine == id_) {
        // Decode continues locally (baseline, mixed pool, or
        // standalone machine).
        request->tokenMachine = id_;
        if (trace_)
            trace_->transition(
                telemetry::TraceRecorder::requestTrack(request->spec.id),
                "decode", simulator_.now(), {{"machine", id_}});
        if (spans_)
            spans_->transition(request->spec.id,
                               telemetry::SpanPhase::kDecode,
                               simulator_.now());
        mls_.addResident(request);
        return;
    }
    request->phase = RequestPhase::kTransferring;
    if (!callbacks_.onPromptDone)
        sim::panic("Machine: remote token machine but no onPromptDone hook");
    // Flow-arrow source: emitted while this machine's iteration slice
    // is still open (routePromptCompletion runs before the machine
    // track's span end in completeIteration).
    if (trace_)
        trace_->flowStart(telemetry::TraceRecorder::machineTrack(id_),
                          "kv_handoff", simulator_.now(), request->spec.id);
    callbacks_.onPromptDone(*this, request, prompt_compute);
}

void
Machine::completeIteration(const BatchPlan& plan, sim::TimeUs duration)
{
    // A failed machine's in-flight iteration is lost; the cluster
    // restarted its requests.
    if (failed_)
        return;

    const sim::TimeUs now = simulator_.now();

    bool freed = false;
    for (auto* req : plan.decodes) {
        req->recordToken(now);
        ++stats_.tokensGenerated;
        if (onToken_)
            onToken_(req);
        if (req->finished()) {
            req->phase = RequestPhase::kDone;
            if (trace_)
                trace_->close(
                    telemetry::TraceRecorder::requestTrack(req->spec.id), now);
            mls_.finish(req);
            freed = true;
            if (callbacks_.onRequestDone)
                callbacks_.onRequestDone(*this, req);
        }
    }

    for (auto* req : plan.prompts) {
        stats_.promptTokensProcessed += req->chunkTokens;
        req->promptProcessed += req->chunkTokens;
        req->chunkTokens = 0;
        // The first token appears only once every prompt chunk has
        // been computed (chunked prefill spreads a prompt over
        // several iterations).
        const std::int64_t work = req->generated > 0
                                      ? req->contextTokens()
                                      : req->spec.promptTokens;
        if (req->promptProcessed < work)
            continue;
        if (callbacks_.onPrefillComplete)
            callbacks_.onPrefillComplete(*this, req);
        req->recordToken(now);
        ++stats_.tokensGenerated;
        if (onToken_)
            onToken_(req);
        routePromptCompletion(req, duration);
    }

    ++stats_.iterations;
    const bool has_prompt = !plan.prompts.empty();
    const bool has_decode = !plan.decodes.empty();
    if (has_prompt && has_decode)
        ++stats_.mixedIterations;
    else if (has_prompt)
        ++stats_.promptIterations;
    else
        ++stats_.tokenIterations;
    stats_.busyUs += duration;

    if (trace_)
        trace_->end(telemetry::TraceRecorder::machineTrack(id_), now);

    busy_ = false;
    runningPromptTokens_ = 0;
    currentWatts_ = 0.0;

    if (freed && callbacks_.onMemoryFreed)
        callbacks_.onMemoryFreed(*this);
    if (callbacks_.onIterationEnd)
        callbacks_.onIterationEnd(*this);
    kick();
}

void
Machine::finalizeStats()
{
    const sim::TimeUs now = simulator_.now();
    stats_.activeTokens.finish(now);
    // Close any open parked/down interval; idempotent because the
    // interval start moves to now.
    if (parked_) {
        stats_.parkedUs += now - parkedSince_;
        parkedSince_ = now;
    }
    if (failed_) {
        stats_.downUs += now - downSince_;
        downSince_ = now;
    }
    stats_.poweredUs = now - stats_.parkedUs;
    const sim::TimeUs idle = std::max<sim::TimeUs>(
        0, stats_.poweredUs - stats_.busyUs - stats_.downUs);
    stats_.idleEnergyWh = power_.machinePowerWatts(spec_, 0.0) *
                          sim::usToSeconds(idle) / 3600.0;
}

double
Machine::currentPowerWatts() const
{
    if (failed_ || parked_)
        return 0.0;
    if (busy_)
        return currentWatts_;
    // Idle floor: platform overhead with GPUs at rest.
    return power_.machinePowerWatts(spec_, 0.0);
}

}  // namespace splitwise::engine
