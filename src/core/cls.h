#ifndef SPLITWISE_CORE_CLS_H_
#define SPLITWISE_CORE_CLS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "engine/machine.h"
#include "engine/request.h"
#include "sched/policy.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace splitwise::core {

/** Machine pools maintained by the CLS (paper Fig. 10). */
enum class PoolType {
    kPrompt,
    kToken,
    kMixed,
};

/** Human-readable pool name. */
const char* poolTypeName(PoolType pool);

/** Request-routing policy for machine selection within a pool. */
enum class RoutingPolicy {
    /** Join-the-Shortest-Queue (the paper's choice, SIV-A). */
    kJsq,
    /** Uniform-random pick - the ablation baseline. */
    kRandom,
};

/** Cluster-level scheduler tunables (paper SIV-A). */
struct ClsConfig {
    /** How to pick a machine within a pool. */
    RoutingPolicy routing = RoutingPolicy::kJsq;
    /** Seed for the random-routing stream (kRandom only). */
    std::uint64_t routingSeed = 1;
    /**
     * Pending prompt tokens beyond which the best prompt machine is
     * considered overloaded and the mixed pool is consulted.
     */
    std::int64_t promptOverflowTokens = 12000;
    /**
     * KV utilization beyond which the best token machine is
     * considered overloaded.
     */
    double tokenOverflowUtilization = 0.90;
    /**
     * Per-request TBT bound (ms) defining each machine's
     * latency-efficient decode capacity: a token machine overflows
     * once its residents exceed the largest batch it can decode
     * within this bound (machine-type aware). Must be positive; the
     * Cluster derives it from the SLO reference when left at 0.
     */
    double tokenSloTbtMs = 0.0;
    /**
     * Mixed-pool dwell time after which a machine is re-purposed to
     * the opposite pool; 0 disables re-purposing.
     */
    sim::TimeUs repurposeAfterUs = 0;
    /**
     * Admission control: cluster-wide queued prompt tokens beyond
     * which new arrivals are shed (rejected and counted) instead of
     * queued, so overload degrades gracefully rather than building
     * unbounded queues. 0 disables shedding. Failure-driven restarts
     * are always admitted - the work was already accepted.
     */
    std::int64_t shedQueuedTokensBound = 0;
};

/** Brownout level 2+: output-token cap on newly admitted requests. */
inline constexpr std::int64_t kBrownoutMaxOutputTokens = 256;

/**
 * The cluster-level scheduler: routes each arriving request to a
 * (prompt, token) machine pair with Join-the-Shortest-Queue, and
 * manages the prompt/token/mixed machine pools (paper SIV-A).
 *
 * In baseline (non-Splitwise) mode every machine is standalone and
 * requests are routed whole to the least-loaded machine.
 *
 * Machine state is one table indexed by machine id (0..N-1). Routing
 * reads id-ordered member lists, kept current on every membership
 * change, so an arrival never walks the whole fleet: a random pick is
 * one draw indexing a list, and JSQ scans one list with ties going to
 * the lowest id.
 */
class ClusterScheduler {
  public:
    /**
     * @param splitwise False = baseline mixed-batching cluster.
     */
    ClusterScheduler(sim::Simulator& simulator, ClsConfig config,
                     std::vector<engine::Machine*> prompt_machines,
                     std::vector<engine::Machine*> token_machines,
                     bool splitwise);

    /**
     * Route a new request and submit its prompt phase.
     *
     * @param force_admit Bypass admission control (failure-driven
     *     restarts of already-admitted work).
     * @return false when admission control shed the request (also
     *     when its final context fits no machine's KV); the caller
     *     marks it rejected.
     */
    bool onArrival(engine::LiveRequest* request, bool force_admit = false);

    /**
     * Pool-management hook: after each iteration a mixed-pool
     * machine with no opposite-type work returns to its origin pool.
     */
    void onIterationEnd(engine::Machine& machine);

    /**
     * Remove a failed machine from all pools (SIV-E); no further
     * requests are routed to it. The machine's origin is remembered
     * so a later rejoin() restores it to the right pool.
     */
    void markFailed(int machine_id);

    /**
     * Re-admit a recovered machine: it rejoins its origin pool with
     * fresh scheduling state (it comes back empty, so its JSQ
     * signals read zero and new work flows to it immediately).
     */
    void rejoin(int machine_id);

    /**
     * Take a machine out of routing (autoscaler scale-down or role
     * flex): no further requests are routed to it, but it keeps
     * draining in-flight work. Refuses to retire the last routed
     * machine. The entry moves to standby until restore().
     */
    void retire(int machine_id);

    /** Return a standby machine to routing in its remembered origin. */
    void restore(int machine_id);

    /**
     * Return a standby machine to routing under a (possibly new)
     * origin - the autoscaler's role flex. The machine starts in
     * @p origin with fresh pool state.
     */
    void restore(int machine_id, PoolType origin);

    /** True when the machine sits in controller standby. */
    bool inStandby(int machine_id) const;

    /** Number of machines in controller standby. */
    std::size_t standbySize() const { return standby_; }

    /** Smallest-id standby machine, or -1 when standby is empty. */
    int anyStandby() const;

    /**
     * Set the admission-control brownout level (0 = normal):
     *   L1+ sheds arrivals with priority > 0 (lowest-value first),
     *   L2+ additionally caps admitted output lengths,
     *   L3  rejects every new arrival.
     * Failure-driven restarts are always admitted.
     */
    void setBrownoutLevel(int level);

    /** The current brownout level. */
    int brownoutLevel() const { return brownoutLevel_; }

    /**
     * Pick a machine to host a recovered decode (KV-cache restored
     * from a checkpoint, SIV-E). Unlike normal token routing this
     * never pulls a prompt machine into the mixed pool and never
     * returns a failed or overloaded host; nullptr when nothing can
     * take the work (caller falls back to a from-scratch restart).
     */
    engine::Machine* pickRecoveryTokenMachine();

    /** Queued prompt tokens across all live machines. */
    std::int64_t queuedPromptTokens() const;

    /** Current pool of a machine. */
    PoolType poolOf(int machine_id) const;

    /** Original identity of a machine. */
    PoolType originOf(int machine_id) const;

    /** Number of requests that overflowed into the mixed pool. */
    std::uint64_t mixedPoolRoutes() const { return mixedRoutes_; }

    /** Number of pool transitions (into or out of mixed). */
    std::uint64_t poolTransitions() const { return poolTransitions_; }

    /** Number of permanent re-purposings. */
    std::uint64_t repurposings() const { return repurposings_; }

    /** Number of arrivals shed by admission control. */
    std::uint64_t shedRequests() const { return shedRequests_; }

    /** Number of failed machines re-admitted after recovery. */
    std::uint64_t rejoins() const { return rejoins_; }

    /** Number of machines taken out of routing by the controller. */
    std::uint64_t retires() const { return retires_; }

    /** Number of standby machines returned to routing. */
    std::uint64_t restores() const { return restores_; }

    /** Machines currently assigned to @p pool (live only). */
    std::size_t poolSize(PoolType pool) const;

    /** True when the machine is live (member of some pool). */
    bool contains(int machine_id) const;

    /** Number of live (non-failed) machines across all pools. */
    std::size_t liveMachines() const { return lists_[kRoutedList].size(); }

    /**
     * Attach a trace recorder: shed/transition/rejoin instants land
     * on the cluster track. nullptr detaches.
     */
    void setTrace(telemetry::TraceRecorder* trace) { trace_ = trace; }

    /**
     * Attach a span tracker: brownout-level changes flow into it so
     * queue wait taken under degraded admission is attributed as
     * brownout stall. nullptr detaches.
     */
    void setSpans(telemetry::SpanTracker* spans) { spans_ = spans; }

    /**
     * Attach the session prefix cache (non-owning; the Cluster owns
     * it). prepareRoute() runs before every admitted arrival's
     * routing; an affinity preference is honoured when the named
     * machine is still routed, and degrades to the normal JSQ path
     * (with the request's prefix tag cleared) otherwise. nullptr
     * (the default policy) detaches.
     */
    void setPrefixCache(sched::PrefixCache* cache) { prefixCache_ = cache; }

  private:
    /** Test access to the routing picks. */
    friend class ClusterSchedulerPeer;

    /** Routing state: in a pool, retired by the controller (draining
     *  or parked), or failed and waiting for rejoin(). */
    enum class State { kRouted, kStandby, kLost };

    struct Entry {
        engine::Machine* machine = nullptr;
        PoolType origin = PoolType::kPrompt;
        PoolType pool = PoolType::kPrompt;
        sim::TimeUs mixedSince = 0;
        State state = State::kRouted;
    };

    /**
     * The id-ordered member lists of routed machines. The first three
     * are indexed like PoolType. A phase view is that phase's pool
     * plus the mixed-pool machines of that origin.
     */
    enum List : std::size_t {
        kPromptPool,
        kTokenPool,
        kMixedPool,
        kPromptPhase,
        kTokenPhase,
        /** Every routed machine (baseline routing). */
        kRoutedList,
        kListCount,
    };

    /** The entry of machine @p id; std::out_of_range if unknown. */
    Entry& at(int id) { return entries_.at(static_cast<std::size_t>(id)); }

    /** The machine of list member @p id (unchecked). */
    engine::Machine*
    member(int id) const
    {
        return entries_[static_cast<std::size_t>(id)].machine;
    }

    /** True when @p machine_id is a known machine in @p state. */
    bool isIn(int machine_id, State state) const;

    /** Bit set (1 << List) of the lists @p entry belongs to. */
    static unsigned listsOf(const Entry& entry);

    /** Bring the lists up to date after @p entry changed from a
     *  membership of @p before: one sorted insert or erase per list
     *  joined or left. */
    void relist(const Entry& entry, unsigned before);

    /** Flip a machine's routing state, keeping counts and lists. */
    void setState(Entry& entry, State state);

    /** Under JSQ, the machine of @p ids with the least @p load (ties
     *  to the lowest id); under kRandom, one uniform draw indexing
     *  @p ids. nullptr, with no draw, when @p ids is empty. */
    template <typename Load>
    engine::Machine* pickFrom(const std::vector<int>& ids, Load load) const;

    /**
     * pickFrom() among the machines taking @p phase work in @p pool,
     * by that phase's load. A mixed-pool machine retains its identity
     * (SIV-A): a prompt machine running tokens still takes prompts.
     */
    engine::Machine* pickIn(PoolType pool, PoolType phase) const;

    /** pickFrom() among all routed machines by pending tokens. */
    engine::Machine* pickBaseline() const;

    void moveToPool(int machine_id, PoolType pool);

    bool promptOverloaded(const engine::Machine& m) const;
    bool tokenOverloaded(const engine::Machine& m) const;

    /** True when admission control should shed a new arrival. */
    bool shouldShed() const;

    /** Brownout-aware shed decision for one arrival. */
    bool shouldShedRequest(const engine::LiveRequest& request) const;

    void routeBaseline(engine::LiveRequest* request);
    void routeSplitwise(engine::LiveRequest* request);

    /**
     * Resolve the prefix cache's affinity preference for @p request:
     * the preferred machine when it is still routed and live, else
     * nullptr (after clearing the request's prefix tag — the pin
     * can only be taken on the machine that holds the prefix).
     */
    engine::Machine* affinityMachine(engine::LiveRequest* request);

    /** Pick the prompt-phase machine, spilling into the mixed pool
     *  and opposite pool under load. Sets local_decode when the
     *  machine should also run the token phase. */
    engine::Machine* pickPromptMachine(bool& local_decode);

    /** Pick the token-phase machine, spilling symmetrically. */
    engine::Machine* pickTokenMachine();

    sim::Simulator& simulator_;
    ClsConfig config_;
    bool splitwise_;
    mutable sim::Rng routingRng_{1};
    /** Every machine, indexed by id. */
    std::vector<Entry> entries_;
    /** Routed machine ids per List, ascending. */
    std::array<std::vector<int>, kListCount> lists_;
    /** Machines in State::kStandby. */
    std::size_t standby_ = 0;
    /** KV token capacity of the largest machine. */
    std::int64_t maxKvTokens_ = 0;
    int brownoutLevel_ = 0;
    std::uint64_t mixedRoutes_ = 0;
    std::uint64_t poolTransitions_ = 0;
    std::uint64_t repurposings_ = 0;
    std::uint64_t shedRequests_ = 0;
    std::uint64_t rejoins_ = 0;
    std::uint64_t retires_ = 0;
    std::uint64_t restores_ = 0;
    telemetry::TraceRecorder* trace_ = nullptr;
    telemetry::SpanTracker* spans_ = nullptr;
    sched::PrefixCache* prefixCache_ = nullptr;
};

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_CLS_H_
