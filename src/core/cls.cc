#include "core/cls.h"

#include <algorithm>
#include <limits>

#include "sim/log.h"

namespace splitwise::core {

const char*
poolTypeName(PoolType pool)
{
    switch (pool) {
      case PoolType::kPrompt: return "prompt";
      case PoolType::kToken: return "token";
      case PoolType::kMixed: return "mixed";
    }
    return "?";
}

ClusterScheduler::ClusterScheduler(sim::Simulator& simulator, ClsConfig config,
                                   std::vector<engine::Machine*> prompt_machines,
                                   std::vector<engine::Machine*> token_machines,
                                   bool splitwise)
    : simulator_(simulator), config_(config), splitwise_(splitwise),
      routingRng_(config.routingSeed)
{
    if (prompt_machines.empty() && token_machines.empty())
        sim::fatal("ClusterScheduler: no machines");
    if (config_.tokenSloTbtMs <= 0.0)
        sim::fatal("ClusterScheduler: tokenSloTbtMs must be positive");
    entries_.resize(prompt_machines.size() + token_machines.size());
    auto add = [&](engine::Machine* m, PoolType origin) {
        Entry& e = at(m->id());
        if (e.machine)
            sim::fatal("ClusterScheduler: duplicate machine id");
        e = {m, origin, origin, 0, State::kRouted};
        maxKvTokens_ =
            std::max(maxKvTokens_, m->mls().blocks().tokenCapacity());
    };
    for (auto* m : prompt_machines)
        add(m, splitwise_ ? PoolType::kPrompt : PoolType::kMixed);
    for (auto* m : token_machines)
        add(m, splitwise_ ? PoolType::kToken : PoolType::kMixed);
    for (const Entry& e : entries_)
        relist(e, 0);
}

bool
ClusterScheduler::isIn(int machine_id, State state) const
{
    const auto id = static_cast<std::size_t>(machine_id);
    return id < entries_.size() && entries_[id].state == state;
}

unsigned
ClusterScheduler::listsOf(const Entry& entry)
{
    static_assert(kPromptPool == static_cast<std::size_t>(PoolType::kPrompt) &&
                  kTokenPool == static_cast<std::size_t>(PoolType::kToken) &&
                  kMixedPool == static_cast<std::size_t>(PoolType::kMixed));
    if (entry.state != State::kRouted)
        return 0;
    unsigned lists = 1u << kRoutedList;
    lists |= 1u << static_cast<std::size_t>(entry.pool);
    const PoolType phase =
        entry.pool == PoolType::kMixed ? entry.origin : entry.pool;
    if (phase == PoolType::kPrompt)
        lists |= 1u << kPromptPhase;
    else if (phase == PoolType::kToken)
        lists |= 1u << kTokenPhase;
    return lists;
}

void
ClusterScheduler::relist(const Entry& entry, unsigned before)
{
    const unsigned after = listsOf(entry);
    const int id = entry.machine->id();
    for (std::size_t list = 0; list < kListCount; ++list) {
        const unsigned bit = 1u << list;
        if (((before ^ after) & bit) == 0)
            continue;
        std::vector<int>& ids = lists_[list];
        const auto it = std::lower_bound(ids.begin(), ids.end(), id);
        if (after & bit)
            ids.insert(it, id);
        else
            ids.erase(it);
    }
}

void
ClusterScheduler::setState(Entry& entry, State state)
{
    standby_ += state == State::kStandby;
    standby_ -= entry.state == State::kStandby;
    const unsigned before = listsOf(entry);
    entry.state = state;
    relist(entry, before);
}

void
ClusterScheduler::markFailed(int machine_id)
{
    // A machine can crash while retired to standby (draining or
    // parked); it still needs to be parked for rejoin().
    Entry& e = at(machine_id);
    if (e.state == State::kLost)
        return;
    setState(e, State::kLost);
    // Routed machines can hit zero while standby still holds live
    // capacity - the owner must restore from standby immediately
    // (Cluster's emergency restore). Only a cluster with nothing
    // left anywhere is unrecoverable.
    if (liveMachines() == 0 && standby_ == 0)
        sim::fatal("ClusterScheduler: every machine has failed");
}

void
ClusterScheduler::rejoin(int machine_id)
{
    Entry& e = at(machine_id);
    if (e.state != State::kLost)
        sim::fatal("ClusterScheduler::rejoin: machine was never lost");
    // The machine comes back empty: restore its original identity
    // and drop any mixed-pool residue from before the crash.
    e.pool = e.origin;
    e.mixedSince = 0;
    setState(e, State::kRouted);
    ++rejoins_;
    if (trace_)
        trace_->instant(
            telemetry::TraceRecorder::clusterTrack(), "rejoin",
            simulator_.now(),
            {{"machine", machine_id}, {"pool", poolTypeName(e.pool)}});
}

void
ClusterScheduler::retire(int machine_id)
{
    Entry& e = at(machine_id);
    if (e.state != State::kRouted)
        sim::fatal("ClusterScheduler::retire: machine is not routed");
    if (liveMachines() == 1)
        sim::fatal("ClusterScheduler::retire: last routed machine");
    setState(e, State::kStandby);
    ++retires_;
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::clusterTrack(), "retire",
                        simulator_.now(), {{"machine", machine_id}});
}

void
ClusterScheduler::restore(int machine_id)
{
    restore(machine_id, at(machine_id).origin);
}

void
ClusterScheduler::restore(int machine_id, PoolType origin)
{
    Entry& e = at(machine_id);
    if (e.state != State::kStandby)
        sim::fatal("ClusterScheduler::restore: machine is not in standby");
    // The machine was drained before standby, so it re-enters with a
    // clean identity - possibly a new one (role flex).
    e.origin = origin;
    e.pool = origin;
    e.mixedSince = 0;
    setState(e, State::kRouted);
    ++restores_;
    if (trace_)
        trace_->instant(
            telemetry::TraceRecorder::clusterTrack(), "restore",
            simulator_.now(),
            {{"machine", machine_id}, {"pool", poolTypeName(origin)}});
}

bool
ClusterScheduler::inStandby(int machine_id) const
{
    return isIn(machine_id, State::kStandby);
}

int
ClusterScheduler::anyStandby() const
{
    for (std::size_t id = 0; id < entries_.size(); ++id) {
        if (entries_[id].state == State::kStandby)
            return static_cast<int>(id);
    }
    return -1;
}

void
ClusterScheduler::setBrownoutLevel(int level)
{
    if (level < 0 || level > 3)
        sim::fatal("ClusterScheduler::setBrownoutLevel: level out of range");
    if (level == brownoutLevel_)
        return;
    brownoutLevel_ = level;
    if (trace_)
        trace_->instant(telemetry::TraceRecorder::clusterTrack(),
                        "brownout", simulator_.now(), {{"level", level}});
    if (spans_)
        spans_->setBrownoutLevel(level);
}

std::size_t
ClusterScheduler::poolSize(PoolType pool) const
{
    return lists_[static_cast<std::size_t>(pool)].size();
}

bool
ClusterScheduler::contains(int machine_id) const
{
    return isIn(machine_id, State::kRouted);
}

PoolType
ClusterScheduler::poolOf(int machine_id) const
{
    // Standby and failed machines hold no routing pool; report their
    // remembered identity instead.
    const Entry& e = entries_.at(static_cast<std::size_t>(machine_id));
    return e.state == State::kRouted ? e.pool : e.origin;
}

PoolType
ClusterScheduler::originOf(int machine_id) const
{
    return entries_.at(static_cast<std::size_t>(machine_id)).origin;
}

template <typename Load>
engine::Machine*
ClusterScheduler::pickFrom(const std::vector<int>& ids, Load load) const
{
    if (ids.empty())
        return nullptr;
    if (config_.routing == RoutingPolicy::kRandom) {
        const std::int64_t k = routingRng_.uniformInt(
            0, static_cast<std::int64_t>(ids.size()) - 1);
        return member(ids[static_cast<std::size_t>(k)]);
    }
    engine::Machine* best = nullptr;
    std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
    for (const int id : ids) {
        engine::Machine* m = member(id);
        const std::int64_t l = load(*m);
        if (l < best_load) {
            best_load = l;
            best = m;
        }
    }
    return best;
}

engine::Machine*
ClusterScheduler::pickIn(PoolType pool, PoolType phase) const
{
    const bool prompt = phase == PoolType::kPrompt;
    const std::vector<int>& ids =
        lists_[pool != phase ? static_cast<std::size_t>(pool)
               : prompt      ? kPromptPhase
                             : kTokenPhase];
    if (prompt) {
        return pickFrom(ids, [](const engine::Machine& m) {
            return m.promptQueueDepthTokens();
        });
    }
    return pickFrom(
        ids, [](const engine::Machine& m) { return m.tokenLoadTokens(); });
}

engine::Machine*
ClusterScheduler::pickBaseline() const
{
    // Pending tokens: queued prompt work plus one per active decode
    // (a decode contributes one token per iteration).
    return pickFrom(lists_[kRoutedList], [](const engine::Machine& m) {
        return m.promptQueueDepthTokens() +
               static_cast<std::int64_t>(m.mls().residentCount());
    });
}

void
ClusterScheduler::moveToPool(int machine_id, PoolType pool)
{
    Entry& e = at(machine_id);
    if (e.pool == pool)
        return;
    const unsigned before = listsOf(e);
    e.pool = pool;
    relist(e, before);
    if (pool == PoolType::kMixed)
        e.mixedSince = simulator_.now();
    ++poolTransitions_;
    if (trace_)
        trace_->instant(
            telemetry::TraceRecorder::clusterTrack(), "pool_transition",
            simulator_.now(),
            {{"machine", machine_id}, {"pool", poolTypeName(pool)}});
}

bool
ClusterScheduler::promptOverloaded(const engine::Machine& m) const
{
    return m.promptQueueDepthTokens() > config_.promptOverflowTokens;
}

bool
ClusterScheduler::tokenOverloaded(const engine::Machine& m) const
{
    const std::int64_t capacity = m.mls().blocks().tokenCapacity();
    if (capacity <= 0)
        return true;
    const double util = static_cast<double>(m.tokenLoadTokens()) /
                        static_cast<double>(capacity);
    if (util > config_.tokenOverflowUtilization)
        return true;
    // Residents plus reserved inbound transfers: past the
    // latency-efficient batch range the machine counts as full even
    // with KV memory to spare.
    const auto pending = static_cast<int>(m.mls().blocks().residents());
    return pending > m.maxBatchWithinTbt(config_.tokenSloTbtMs);
}

engine::Machine*
ClusterScheduler::pickPromptMachine(bool& local_decode)
{
    local_decode = false;
    engine::Machine* best = pickIn(PoolType::kPrompt, PoolType::kPrompt);
    if (best && !promptOverloaded(*best))
        return best;

    // Overflow: consult the mixed pool; a mixed machine serves the
    // request like a non-Splitwise machine, both phases local.
    engine::Machine* mixed = pickIn(PoolType::kMixed, PoolType::kPrompt);
    if (mixed && !promptOverloaded(*mixed)) {
        local_decode = true;
        ++mixedRoutes_;
        return mixed;
    }

    // Mixed pool full too: pull the least-loaded token machine in.
    engine::Machine* pulled = pickIn(PoolType::kToken, PoolType::kPrompt);
    if (pulled) {
        moveToPool(pulled->id(), PoolType::kMixed);
        local_decode = true;
        ++mixedRoutes_;
        return pulled;
    }
    return best ? best : mixed;
}

engine::Machine*
ClusterScheduler::pickTokenMachine()
{
    engine::Machine* best = pickIn(PoolType::kToken, PoolType::kToken);
    if (best && !tokenOverloaded(*best))
        return best;

    engine::Machine* mixed = pickIn(PoolType::kMixed, PoolType::kToken);
    if (mixed && !tokenOverloaded(*mixed)) {
        ++mixedRoutes_;
        return mixed;
    }

    engine::Machine* pulled = pickIn(PoolType::kPrompt, PoolType::kToken);
    if (pulled) {
        moveToPool(pulled->id(), PoolType::kMixed);
        ++mixedRoutes_;
        return pulled;
    }
    return best ? best : mixed;
}

engine::Machine*
ClusterScheduler::pickRecoveryTokenMachine()
{
    // Recovery placement is conservative: the cluster is already in
    // a degraded state, so never pull a prompt machine into mixed
    // and never land a recovered decode on a failed or saturated
    // host - a nullptr falls back to a from-scratch restart instead.
    // Least token load across both lists, ties to the lowest id.
    engine::Machine* best = nullptr;
    std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
    for (const List list : {kTokenPool, kMixedPool}) {
        for (const int id : lists_[list]) {
            engine::Machine* m = member(id);
            if (m->failed() || tokenOverloaded(*m))
                continue;
            const std::int64_t l = m->tokenLoadTokens();
            if (l < best_load || (best && l == best_load && id < best->id())) {
                best_load = l;
                best = m;
            }
        }
    }
    return best;
}

std::int64_t
ClusterScheduler::queuedPromptTokens() const
{
    std::int64_t total = 0;
    for (const int id : lists_[kRoutedList])
        total += member(id)->promptQueueDepthTokens();
    return total;
}

bool
ClusterScheduler::shouldShed() const
{
    return config_.shedQueuedTokensBound > 0 &&
           queuedPromptTokens() > config_.shedQueuedTokensBound;
}

bool
ClusterScheduler::shouldShedRequest(const engine::LiveRequest& request) const
{
    // The brownout ladder degrades admission progressively: L1 drops
    // the lowest-value traffic, L3 closes the door entirely. The
    // static queue bound stays active at every level.
    if (brownoutLevel_ >= 3)
        return true;
    if (brownoutLevel_ >= 1 && request.spec.priority > 0)
        return true;
    // A request whose final context outgrows the largest machine's
    // KV could never finish anywhere: refuse it at admission.
    const std::int64_t prompt = request.spec.promptTokens;
    if (prompt > maxKvTokens_ ||
        request.spec.outputTokens > maxKvTokens_ - prompt)
        return true;
    return shouldShed();
}

engine::Machine*
ClusterScheduler::affinityMachine(engine::LiveRequest* request)
{
    if (!prefixCache_)
        return nullptr;
    const int target = prefixCache_->prepareRoute(*request);
    if (target < 0)
        return nullptr;
    if (!contains(target) || at(target).machine->failed()) {
        // Stale directory entry: the machine crashed, retired, or
        // parked since the prefix was stored. The prefix can only be
        // pinned where it lives, so the hit degrades to a full
        // prefill on whatever machine JSQ picks.
        request->cachedPrefixTokens = 0;
        return nullptr;
    }
    prefixCache_->noteAffinityRoute();
    return at(target).machine;
}

void
ClusterScheduler::routeBaseline(engine::LiveRequest* request)
{
    if (engine::Machine* affinity = affinityMachine(request)) {
        request->tokenMachine = affinity->id();
        affinity->submitPrompt(request);
        return;
    }
    engine::Machine* best = pickBaseline();
    request->tokenMachine = best->id();
    best->submitPrompt(request);
}

void
ClusterScheduler::routeSplitwise(engine::LiveRequest* request)
{
    bool local_decode = false;
    engine::Machine* prompt_machine = affinityMachine(request);
    if (prompt_machine) {
        // Session affinity overrides JSQ for the prompt phase only;
        // the decode placement below stays load-driven. A mixed-pool
        // target keeps both phases local, like any mixed-pool route.
        local_decode = poolOf(prompt_machine->id()) == PoolType::kMixed;
    } else {
        prompt_machine = pickPromptMachine(local_decode);
    }
    if (!prompt_machine)
        sim::panic("ClusterScheduler: no prompt machine available");

    if (local_decode) {
        request->tokenMachine = prompt_machine->id();
    } else {
        engine::Machine* token_machine = pickTokenMachine();
        // When every token-capable machine is saturated, shipping
        // the KV-cache would only add transfer stalls on top of the
        // overload: run both phases locally instead - at stress
        // Splitwise devolves into the iso-count baseline (SVI-E).
        if (!token_machine ||
            (token_machine != prompt_machine &&
             tokenOverloaded(*token_machine))) {
            request->tokenMachine = prompt_machine->id();
        } else {
            request->tokenMachine = token_machine->id();
        }
    }
    prompt_machine->submitPrompt(request);
}

bool
ClusterScheduler::onArrival(engine::LiveRequest* request, bool force_admit)
{
    if (!force_admit && shouldShedRequest(*request)) {
        ++shedRequests_;
        if (trace_)
            trace_->instant(telemetry::TraceRecorder::clusterTrack(),
                            "shed", simulator_.now(),
                            {{"request", request->spec.id}});
        return false;
    }
    // Brownout L2+: cap how much generation an admitted request may
    // demand. Applied at admission so the cap is part of the
    // request's contract for its whole lifetime.
    if (!force_admit && brownoutLevel_ >= 2) {
        request->spec.outputTokens =
            std::min(request->spec.outputTokens, kBrownoutMaxOutputTokens);
    }
    if (splitwise_)
        routeSplitwise(request);
    else
        routeBaseline(request);
    return true;
}

void
ClusterScheduler::onIterationEnd(engine::Machine& machine)
{
    if (!contains(machine.id()))
        return;  // failed machine draining a stale event
    Entry& e = at(machine.id());
    if (e.pool != PoolType::kMixed || e.origin == PoolType::kMixed)
        return;

    // Permanent re-purposing after a long mixed-pool stay (SIV-A).
    if (config_.repurposeAfterUs > 0 &&
        simulator_.now() - e.mixedSince > config_.repurposeAfterUs) {
        const unsigned before = listsOf(e);
        e.origin = e.origin == PoolType::kPrompt ? PoolType::kToken
                                                 : PoolType::kPrompt;
        relist(e, before);
        ++repurposings_;
    }

    // A mixed-pool machine returns to its origin pool once it has no
    // tasks of the opposite kind left.
    const bool opposite_drained = e.origin == PoolType::kPrompt
                                      ? !machine.mls().hasDecodeWork()
                                      : !machine.mls().hasPromptWork();
    if (opposite_drained)
        moveToPool(machine.id(), e.origin);
}

}  // namespace splitwise::core
