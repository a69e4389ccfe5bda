#include "testing/invariants.h"

#include <array>
#include <string>

#include "telemetry/telemetry.h"

namespace splitwise::testing {

namespace {

/**
 * Forward-progress rank of a phase. Regressions (decode back to
 * queued, for example) are legal only alongside a restart-epoch or
 * preemption-counter bump; anything else is a stale event firing.
 */
int
phaseRank(engine::RequestPhase phase)
{
    switch (phase) {
      case engine::RequestPhase::kPromptQueued: return 0;
      case engine::RequestPhase::kPromptRunning: return 1;
      case engine::RequestPhase::kTransferring: return 2;
      case engine::RequestPhase::kDecoding: return 3;
      case engine::RequestPhase::kDone: return 4;
      case engine::RequestPhase::kRejected: return 4;
    }
    return -1;
}

std::string
requestTag(const engine::LiveRequest& req)
{
    return "request " + std::to_string(req.spec.id) + " (" +
           engine::requestPhaseName(req.phase) + ", prompt_m=" +
           std::to_string(req.promptMachine) + ", token_m=" +
           std::to_string(req.tokenMachine) + ")";
}

}  // namespace

InvariantViolation::InvariantViolation(std::string invariant, sim::TimeUs at,
                                       std::string detail)
    : std::runtime_error("invariant '" + invariant + "' violated at t=" +
                         std::to_string(at) + "us: " + detail),
      invariant_(std::move(invariant)), at_(at), detail_(std::move(detail))
{
}

InvariantChecker::InvariantChecker(core::Cluster& cluster,
                                   InvariantOptions options)
    : cluster_(cluster), options_(options),
      holders_(cluster.machines().size())
{
    hook_ = cluster_.simulator().addTimeAdvanceHook(
        [this](sim::TimeUs next) { onAdvance(next); });
}

InvariantChecker::~InvariantChecker()
{
    cluster_.simulator().removeTimeAdvanceHook(hook_);
}

void
InvariantChecker::violate(const char* invariant,
                          const std::string& detail) const
{
    throw InvariantViolation(invariant, cluster_.simulator().now(), detail);
}

void
InvariantChecker::onAdvance(sim::TimeUs next)
{
    // Event timestamps must be monotone: the clock only moves
    // forward, and never behind the previous advance.
    if (next < cluster_.simulator().now()) {
        violate("time-monotone",
                "clock would move backwards: next=" + std::to_string(next) +
                    " now=" + std::to_string(cluster_.simulator().now()));
    }
    if (lastAdvance_ >= 0 && next < lastAdvance_) {
        violate("time-monotone",
                "advance to " + std::to_string(next) +
                    " behind previous advance " +
                    std::to_string(lastAdvance_));
    }
    lastAdvance_ = next;

    ++advances_;
    if (options_.checkEveryNthAdvance > 1 &&
        advances_ % static_cast<std::uint64_t>(
                        options_.checkEveryNthAdvance) != 0) {
        return;
    }
    checkNow();
}

void
InvariantChecker::refreshIndex()
{
    const auto& pool = cluster_.requestPool();
    if (poolVersion_ == pool.version())
        return;
    poolVersion_ = pool.version();
    liveIds_.clear();
    liveIds_.reserve(pool.liveCount());
    pool.forEachLive([&](const engine::LiveRequest& req) {
        if (!liveIds_.insert(req.spec.id).second) {
            violate("request-conservation",
                    "duplicate request id " + std::to_string(req.spec.id) +
                        " in the live set");
        }
    });
    // Snapshots of retired requests can never be observed again;
    // prune them so the checker's memory stays O(in-flight) too.
    for (auto it = lastSeen_.begin(); it != lastSeen_.end();) {
        if (liveIds_.count(it->first) == 0)
            it = lastSeen_.erase(it);
        else
            ++it;
    }
}

void
InvariantChecker::checkNow()
{
    refreshIndex();
    checkRequests();
    checkMachines();
    checkKv();
    if (controller_)
        checkController();
    checkTransfers();
    checkTelemetry();
    checkSpanTimelines();
    checkEventQueue();
    ++checksRun_;
}

void
InvariantChecker::checkRequests()
{
    const sim::TimeUs now = cluster_.simulator().now();
    const auto& pool = cluster_.requestPool();
    std::size_t liveSeen = 0;
    std::size_t decoding = 0;
    for (auto& holders : holders_)
        holders.clear();

    pool.forEachLive([&](const engine::LiveRequest& req) {
        ++liveSeen;

        // Slots are acquired by the arrival event itself, so a live
        // slot for a request from the future means the stream path
        // admitted it early.
        if (req.spec.arrival > now) {
            violate("request-conservation",
                    requestTag(req) + " holds a live slot before its "
                        "arrival at " + std::to_string(req.spec.arrival));
        }

        switch (req.phase) {
          case engine::RequestPhase::kDone:
          case engine::RequestPhase::kRejected:
            // Terminal slots release inside the completion callback,
            // before the next quiescent point; one still live here is
            // a leaked slot - exactly the O(in-flight) bug class the
            // pool exists to prevent.
            violate("live-set-bound",
                    requestTag(req) +
                        " is terminal but still holds a pool slot");
          case engine::RequestPhase::kTransferring:
            if (req.promptMachine < 0 || req.tokenMachine < 0) {
                violate("request-conservation",
                        requestTag(req) + " transferring while unrouted");
            }
            break;
          case engine::RequestPhase::kDecoding: {
            ++decoding;
            if (req.tokenMachine < 0) {
                violate("request-conservation",
                        requestTag(req) + " decoding while unrouted");
            }
            const auto& mls =
                cluster_.machines()[static_cast<std::size_t>(
                                        req.tokenMachine)]
                    ->mls();
            if (!mls.resident(&req) || !mls.blocks().holds(req)) {
                violate("kv-accounting",
                        requestTag(req) +
                            " decoding but not resident (or without KV) on "
                            "its token machine");
            }
            break;
          }
          case engine::RequestPhase::kPromptQueued:
          case engine::RequestPhase::kPromptRunning:
            break;
        }

        if (!req.terminal() && req.generated >= req.spec.outputTokens) {
            violate("request-conservation",
                    requestTag(req) + " overran its output budget: " +
                        std::to_string(req.generated) + "/" +
                        std::to_string(req.spec.outputTokens));
        }

        // Stale-event detection: compare against the last snapshot.
        // Within one restart epoch (and absent preemptions) progress
        // is monotone and terminal states are frozen.
        auto& snap = lastSeen_[req.spec.id];
        if (req.restartEpoch < snap.epoch) {
            violate("stale-event",
                    requestTag(req) + " restart epoch moved backwards");
        }
        const bool same_epoch = req.restartEpoch == snap.epoch &&
                                req.restarts == snap.restarts &&
                                req.preemptions == snap.preemptions;
        if (same_epoch) {
            if (phaseRank(req.phase) < phaseRank(snap.phase)) {
                violate("stale-event",
                        requestTag(req) + " phase regressed from " +
                            engine::requestPhaseName(snap.phase) +
                            " without a restart or preemption");
            }
            if (req.generated < snap.generated) {
                violate("stale-event",
                        requestTag(req) + " generated-token count fell " +
                            std::to_string(snap.generated) + " -> " +
                            std::to_string(req.generated));
            }
        }
        if (snap.phase == engine::RequestPhase::kDone &&
            (req.phase != engine::RequestPhase::kDone ||
             req.generated != snap.generated ||
             req.doneTime != snap.doneTime)) {
            violate("stale-event",
                    requestTag(req) + " mutated after completion");
        }
        if (snap.phase == engine::RequestPhase::kRejected &&
            req.phase != engine::RequestPhase::kRejected) {
            violate("stale-event", requestTag(req) + " revived after shed");
        }
        snap = Snapshot{req.phase,     req.generated,   req.restartEpoch,
                        req.restarts,  req.preemptions, req.doneTime};
        collectHolds(req);
    });

    // Pool accounting must be internally consistent: the live column
    // walk, the counter, and the acquire/release totals agree.
    if (liveSeen != pool.liveCount()) {
        violate("live-set-bound",
                "pool counts " + std::to_string(pool.liveCount()) +
                    " live slots but the live column holds " +
                    std::to_string(liveSeen));
    }

    // The declared in-flight budget (SimConfig::maxLiveRequests)
    // bounds the live set at every quiescent point - the memory
    // contract of the streaming path.
    const std::size_t budget = cluster_.config().maxLiveRequests;
    if (budget > 0 && pool.liveCount() > budget) {
        violate("live-set-bound",
                std::to_string(pool.liveCount()) +
                    " in-flight request slots exceed the configured "
                    "budget of " + std::to_string(budget));
    }

    // Conservation cross-checks: every acquired slot is either still
    // live, folded into a completion record, or counted rejected -
    // a lost or double-counted request breaks the ledger.
    const std::uint64_t completed = cluster_.results().completed();
    const std::uint64_t rejected =
        cluster_.metrics().counterValue("rejected");
    if (pool.acquiredTotal() != pool.liveCount() + completed + rejected) {
        violate("request-conservation",
                std::to_string(pool.acquiredTotal()) + " slots acquired != " +
                    std::to_string(pool.liveCount()) + " live + " +
                    std::to_string(completed) + " completed + " +
                    std::to_string(rejected) + " rejected");
    }
    if (rejected != cluster_.scheduler().shedRequests()) {
        violate("request-conservation",
                "registry counter 'rejected' = " + std::to_string(rejected) +
                    " but CLS shed " +
                    std::to_string(cluster_.scheduler().shedRequests()));
    }

    // Every machine resident must be a live decoding request; a
    // stale resident (finished but never removed) breaks this sum.
    std::size_t residents = 0;
    for (const auto& m : cluster_.machines())
        residents += m->mls().residentCount();
    if (residents > decoding) {
        violate("kv-accounting",
                std::to_string(residents) + " residents across machines but "
                    "only " +
                    std::to_string(decoding) + " requests decoding");
    }
}

void
InvariantChecker::checkMachines()
{
    const auto& machines = cluster_.machines();
    const auto& cls = cluster_.scheduler();
    std::size_t alive = 0;
    // Routed machines per pool, indexed like core::PoolType.
    std::array<std::size_t, 3> pooled{};

    for (std::size_t i = 0; i < machines.size(); ++i) {
        const engine::Machine& m = *machines[i];
        if (m.id() != static_cast<int>(i)) {
            violate("machine-pool",
                    "machine index " + std::to_string(i) + " holds id " +
                        std::to_string(m.id()));
        }

        // Pool-membership conservation: every machine sits in exactly
        // one of {routed, controller standby, failed} - a machine
        // lost (or duplicated) across a role flex breaks this.
        const int states = (cls.contains(m.id()) ? 1 : 0) +
                           (cls.inStandby(m.id()) ? 1 : 0) +
                           (m.failed() ? 1 : 0);
        if (states != 1) {
            violate("machine-pool",
                    "machine " + std::to_string(m.id()) + " is in " +
                        std::to_string(states) +
                        " of {routed, standby, failed}");
        }
        if (cls.contains(m.id())) {
            ++alive;
            ++pooled[static_cast<std::size_t>(cls.poolOf(m.id()))];
        }

        if (m.failed()) {
            // A failed machine dropped all of its state.
            if (m.busy() || m.mls().pendingPrompts() != 0 ||
                m.mls().residentCount() != 0 ||
                m.mls().blocks().residents() != 0 ||
                m.mls().blocks().usedTokens() != 0) {
                violate("machine-pool",
                        "failed machine " + std::to_string(m.id()) +
                            " still holds work or KV");
            }
        }

        // A parked machine was drained first and sits in standby.
        if (m.parked()) {
            if (!cls.inStandby(m.id())) {
                violate("machine-pool",
                        "machine " + std::to_string(m.id()) +
                            " parked outside controller standby");
            }
            if (m.busy() || m.mls().hasWork() ||
                m.mls().blocks().residents() != 0) {
                violate("machine-pool",
                        "parked machine " + std::to_string(m.id()) +
                            " still holds work or KV");
            }
        }
    }

    if (cls.liveMachines() != alive) {
        violate("machine-pool",
                "scheduler tracks " + std::to_string(cls.liveMachines()) +
                    " live machines, cluster routes " +
                    std::to_string(alive));
    }
    // poolSize() reads the scheduler's member lists; a list that
    // drifted from the per-machine pool state shows up here.
    for (const core::PoolType pool :
         {core::PoolType::kPrompt, core::PoolType::kToken,
          core::PoolType::kMixed}) {
        const std::size_t routed = pooled[static_cast<std::size_t>(pool)];
        if (cls.poolSize(pool) != routed) {
            violate("machine-pool",
                    std::string(core::poolTypeName(pool)) + " pool lists " +
                        std::to_string(cls.poolSize(pool)) +
                        " machines but " + std::to_string(routed) +
                        " routed machines sit in it");
        }
    }
}

void
InvariantChecker::collectHolds(const engine::LiveRequest& req)
{
    // Every live hold belongs to a live, non-terminal request placed
    // on the hold's machine. Holds live in the request rows, so the
    // walk over the live slots sees every hold that can be counted;
    // a hold left behind in a released row is not, and shows up in
    // checkKv() as an allocation-count or aggregate mismatch.
    const auto& machines = cluster_.machines();
    for (const engine::KvHold& hold : req.kv) {
        if (hold.owner == nullptr || !hold.owner->live(hold))
            continue;
        int mid = -1;
        for (const int placed : {req.promptMachine, req.tokenMachine}) {
            if (placed >= 0 &&
                &machines[static_cast<std::size_t>(placed)]->mls().blocks() ==
                    hold.owner) {
                mid = placed;
            }
        }
        if (mid < 0 || req.terminal()) {
            violate(hold.allocated ? "kv-orphan" : "prefix-refcount",
                    requestTag(req) +
                        (hold.allocated ? " holds KV" : " pins a prefix") +
                        (mid < 0 ? " on a machine it is not placed on"
                                 : " while terminal"));
        }
        if (hold.prefixTokens > 0) {
            if (req.spec.session != hold.prefixKey) {
                violate("prefix-refcount",
                        requestTag(req) + " pins prefix of session " +
                            std::to_string(hold.prefixKey) +
                            " but belongs to " +
                            std::to_string(req.spec.session));
            }
            if (req.cachedPrefixTokens != hold.prefixTokens) {
                violate("prefix-refcount",
                        requestTag(req) + " pin holds " +
                            std::to_string(hold.prefixTokens) +
                            " tokens but the request's prefix tag says " +
                            std::to_string(req.cachedPrefixTokens));
            }
        }
        holders_[static_cast<std::size_t>(mid)].push_back(&req);
    }
}

void
InvariantChecker::checkKv()
{
    const auto& machines = cluster_.machines();
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const engine::BlockManager& blocks = machines[i]->mls().blocks();
        // An allocation no live request holds is a leaked block - the
        // double-release/missing-release class of bug.
        std::size_t held = 0;
        for (const engine::LiveRequest* req : holders_[i])
            held += blocks.holds(*req) ? 1 : 0;
        if (blocks.residents() != held) {
            violate("kv-orphan",
                    "machine " + std::to_string(i) + " counts " +
                        std::to_string(blocks.residents()) +
                        " KV allocations but live requests hold " +
                        std::to_string(held));
        }
        // The aggregates must equal the live holds' sums plus the
        // shared tier, and each prefix's refcount its live pins.
        const std::string audit = blocks.audit(holders_[i]);
        if (!audit.empty()) {
            violate("kv-accounting",
                    "machine " + std::to_string(i) + ": " + audit);
        }
    }
}

void
InvariantChecker::checkController()
{
    const auto& actions = controller_->actions();
    const auto& cfg = controller_->config();
    for (; actionCursor_ < actions.size(); ++actionCursor_) {
        const control::ControlAction& a = actions[actionCursor_];
        switch (a.type) {
          case control::ActionType::kScaleUpStart:
          case control::ActionType::kScaleDownStart:
          case control::ActionType::kFlexStart: {
            // No oscillation faster than the cooldown: successive
            // scale initiations on one pool must be spaced out. A
            // flex touches both pools and cools both.
            const bool both = a.type == control::ActionType::kFlexStart;
            const bool prompt = both || a.pool == core::PoolType::kPrompt;
            const bool token = both || a.pool == core::PoolType::kToken;
            if (prompt) {
                if (lastInitPrompt_ >= 0 &&
                    a.at - lastInitPrompt_ < cfg.scaleCooldownUs) {
                    violate("scale-cooldown",
                            "prompt-pool scale actions " +
                                std::to_string(a.at - lastInitPrompt_) +
                                "us apart (cooldown " +
                                std::to_string(cfg.scaleCooldownUs) + "us)");
                }
                lastInitPrompt_ = a.at;
            }
            if (token) {
                if (lastInitToken_ >= 0 &&
                    a.at - lastInitToken_ < cfg.scaleCooldownUs) {
                    violate("scale-cooldown",
                            "token-pool scale actions " +
                                std::to_string(a.at - lastInitToken_) +
                                "us apart (cooldown " +
                                std::to_string(cfg.scaleCooldownUs) + "us)");
                }
                lastInitToken_ = a.at;
            }
            break;
          }
          case control::ActionType::kBrownout: {
            if (a.brownoutLevel < 0 || a.brownoutLevel > 3) {
                violate("brownout-monotone",
                        "brownout level " +
                            std::to_string(a.brownoutLevel) +
                            " outside the ladder");
            }
            const int delta = a.brownoutLevel - lastBrownoutLevel_;
            if (delta != 1 && delta != -1) {
                violate("brownout-monotone",
                        "brownout jumped " +
                            std::to_string(lastBrownoutLevel_) + " -> " +
                            std::to_string(a.brownoutLevel));
            }
            if (lastBrownoutAt_ >= 0 &&
                a.at - lastBrownoutAt_ < cfg.brownoutCooldownUs) {
                violate("brownout-monotone",
                        "brownout moves " +
                            std::to_string(a.at - lastBrownoutAt_) +
                            "us apart (cooldown " +
                            std::to_string(cfg.brownoutCooldownUs) + "us)");
            }
            lastBrownoutLevel_ = a.brownoutLevel;
            lastBrownoutAt_ = a.at;
            break;
          }
          default:
            break;
        }
    }
    // The ladder and the scheduler may not drift apart.
    if (cluster_.scheduler().brownoutLevel() != lastBrownoutLevel_) {
        violate("brownout-monotone",
                "scheduler at level " +
                    std::to_string(cluster_.scheduler().brownoutLevel()) +
                    " but the controller last set " +
                    std::to_string(lastBrownoutLevel_));
    }
}

void
InvariantChecker::checkTransfers()
{
    const auto& s = cluster_.transferEngine().stats();
    const auto& prev = lastTransferStats_;
    const bool monotone = s.transfers >= prev.transfers &&
                          s.layerwiseTransfers >= prev.layerwiseTransfers &&
                          s.bytesMoved >= prev.bytesMoved &&
                          s.memoryStalls >= prev.memoryStalls &&
                          s.transferFaults >= prev.transferFaults &&
                          s.transferTimeouts >= prev.transferTimeouts &&
                          s.transferRetries >= prev.transferRetries &&
                          s.transferAborts >= prev.transferAborts &&
                          s.degradedTransfers >= prev.degradedTransfers;
    if (!monotone) {
        violate("transfer-accounting",
                "a cumulative transfer counter decreased");
    }
    lastTransferStats_ = s;
}

void
InvariantChecker::checkEventQueue()
{
    // Structural self-check of the indexed heap: heap property,
    // record<->position back-pointers, and free-list accounting. A
    // corrupt queue would reorder events and break determinism long
    // before it crashed, so DST probes it at every quiescent point.
    const std::string err =
        cluster_.simulator().eventQueue().integrityError();
    if (!err.empty())
        violate("event-queue", err);
}

void
InvariantChecker::checkTelemetry()
{
    const telemetry::TraceRecorder* rec = cluster_.traceRecorder();
    if (!rec)
        return;
    // Span balance: one open span per busy machine (its iteration)
    // plus one per routed, non-terminal request (its lifecycle
    // track). Anything else means a begin/end pair went missing.
    std::size_t expected = 0;
    for (const auto& m : cluster_.machines()) {
        if (m->busy() && !m->failed())
            ++expected;
    }
    cluster_.requestPool().forEachLive([&](const engine::LiveRequest& req) {
        if (!req.terminal() && req.promptMachine >= 0)
            ++expected;
    });
    if (rec->openSpans() != expected) {
        violate("span-balance",
                std::to_string(rec->openSpans()) + " open spans, expected " +
                    std::to_string(expected));
    }
}

void
InvariantChecker::checkSpanTimelines()
{
    const telemetry::SpanTracker* spans = cluster_.spanTracker();
    if (!spans)
        return;
    // The sweep below is O(live timelines x segments); span defects
    // are persistent (append-only segments), so sampling every Nth
    // check loses only latency, not coverage. finalCheck re-sweeps.
    if (options_.spanCheckEveryNth > 1 &&
        (spanCheckTick_++ % static_cast<std::uint64_t>(
                                options_.spanCheckEveryNth)) != 0) {
        return;
    }
    // Timeline balance: exactly one live timeline per routed,
    // non-terminal request - the tracker may neither leak completed
    // timelines nor lose live ones.
    std::size_t routed = 0;
    cluster_.requestPool().forEachLive([&](const engine::LiveRequest& req) {
        if (!req.terminal() && req.promptMachine >= 0)
            ++routed;
    });
    if (spans->liveCount() != routed) {
        violate("span-balance",
                std::to_string(spans->liveCount()) +
                    " live request timelines, expected " +
                    std::to_string(routed) + " routed non-terminal requests");
    }
    // Structural self-check: contiguous from arrival, exactly one
    // open segment, end >= start everywhere.
    const std::string err = spans->integrityError();
    if (!err.empty())
        violate("span-balance", err);
}

void
InvariantChecker::finalCheck(const core::RunReport& report)
{
    refreshIndex();

    const auto& pool = cluster_.requestPool();
    if (pool.liveCount() != 0) {
        std::string first;
        pool.forEachLive([&](const engine::LiveRequest& req) {
            if (first.empty())
                first = requestTag(req);
        });
        violate("liveness",
                std::to_string(pool.liveCount()) +
                    " requests still hold pool slots after the run "
                    "drained (first: " + first + ")");
    }
    // Retired slots are recycled, so the final balance runs on the
    // counter ledger: every acquired slot must have retired as either
    // a completion (latency record) or a rejection (counter).
    const std::uint64_t done = cluster_.results().completed();
    const std::uint64_t rejected = cluster_.metrics().counterValue("rejected");
    if (done + rejected != report.submitted ||
        report.submitted != pool.acquiredTotal()) {
        violate("request-conservation",
                "submitted " + std::to_string(report.submitted) +
                    " != done " + std::to_string(done) + " + rejected " +
                    std::to_string(rejected) + " (pool acquired " +
                    std::to_string(pool.acquiredTotal()) + ")");
    }
    if (report.requests.completed() != done) {
        violate("request-conservation",
                "report says " + std::to_string(report.requests.completed()) +
                    " completed, results ledger says " + std::to_string(done));
    }
    if (report.rejected != rejected) {
        violate("request-conservation",
                "report says " + std::to_string(report.rejected) +
                    " rejected, counter ledger says " +
                    std::to_string(rejected));
    }
    if (report.rejoins != cluster_.scheduler().rejoins()) {
        violate("machine-pool", "report/scheduler rejoin counts disagree");
    }

    for (const auto& m : cluster_.machines()) {
        if (m->busy() && !m->failed()) {
            violate("liveness", "machine " + std::to_string(m->id()) +
                                    " still busy after the run drained");
        }
    }
    // The pool has drained, so no request holds KV: any allocation
    // or pin still counted is leaked (kv-orphan, kv-accounting).
    for (auto& holders : holders_)
        holders.clear();
    checkKv();

    const auto& engine = cluster_.transferEngine();
    if (engine.inFlightTransfers() != 0 || engine.waitingTransfers() != 0) {
        violate("transfer-accounting",
                std::to_string(engine.inFlightTransfers()) + " in-flight / " +
                    std::to_string(engine.waitingTransfers()) +
                    " waiting transfers after the run drained");
    }

    if (const auto* rec = cluster_.traceRecorder()) {
        if (rec->openSpans() != 0) {
            violate("span-balance",
                    std::to_string(rec->openSpans()) +
                        " spans still open after the run");
        }
    }
    if (const auto* spans = cluster_.spanTracker()) {
        if (spans->liveCount() != 0) {
            violate("span-balance",
                    std::to_string(spans->liveCount()) +
                        " request timelines still open after the run "
                        "drained");
        }
        // Full structural sweep: the per-check sweep samples at
        // spanCheckEveryNth, so re-verify everything still live here.
        const std::string err = spans->integrityError();
        if (!err.empty())
            violate("span-balance", err);
        if (spans->completedCount() != done) {
            violate("span-balance",
                    "tracker folded " +
                        std::to_string(spans->completedCount()) +
                        " completed timelines, live state says " +
                        std::to_string(done) + " requests finished");
        }
    }
}

}  // namespace splitwise::testing
