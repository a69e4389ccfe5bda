#ifndef SPLITWISE_SCHED_POLICY_H_
#define SPLITWISE_SCHED_POLICY_H_

/**
 * @file
 * Scheduling-policy selection and the session prefix cache.
 *
 * The two-level scheduler (cluster-level routing in ClusterScheduler,
 * machine-level batching in Mls) is the whole scheduler under the
 * default policy. The prefix policy adds one component on top of it,
 * PrefixCache: session KV-prefix reuse with affinity routing. The
 * Cluster builds a PrefixCache only under PolicyKind::kPrefixCache,
 * so the default path runs no cache code at all — the contract the
 * golden reports pin.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/multi_turn.h"

namespace splitwise::engine {
class Machine;
struct LiveRequest;
}  // namespace splitwise::engine

namespace splitwise::sched {

enum class PolicyKind {
    /** The unmodified two-level scheduler. */
    kDefault,
    /** Session prefix-cache KV reuse with affinity routing. */
    kPrefixCache,
};

/** "default" / "prefix". */
const char* policyKindName(PolicyKind kind);

/** Inverse of policyKindName; false on unknown names. */
bool parsePolicyKind(const std::string& name, PolicyKind* out);

/** The policy names, comma-separated — for CLI help and error text. */
std::string policyNames();

/** Policy selection plus the knobs of the prefix policy. */
struct PolicyConfig {
    PolicyKind kind = PolicyKind::kDefault;
    /**
     * The API context cap the multi-turn workload was generated
     * under (prefix policy only). Cache-key validity must agree with
     * the generator about truncation, so both default to
     * workload::kDefaultMaxContextTokens; see contextPrefixValid().
     */
    std::int64_t maxContextTokens = workload::kDefaultMaxContextTokens;
};

/** Cluster-level counters of the prefix-cache directory over a run. */
struct DirectoryStats {
    /**
     * Session lookups that could not name a prefix machine: session
     * never completed a prefill, its machine crashed, its prefix was
     * evicted, or the prompt hit the context cap. Machine-level
     * acquire failures are counted by BlockManager instead.
     */
    std::uint64_t directoryMisses = 0;
    /** Requests routed to the machine holding their prefix. */
    std::uint64_t affinityRoutes = 0;
    /** Sessions currently tracked in the directory. */
    std::size_t directorySize = 0;
};

/**
 * Session prefix-cache KV reuse.
 *
 * Cache key: the session id — in this token-count simulation the
 * session *is* the content identity, and the cached value is how many
 * leading tokens of the session's context are resident (always
 * block-manager-resident on exactly the machine that last prefilled
 * the session). A directory maps session → that machine; routing
 * prefers it (session affinity), submitPrompt pins the prefix
 * (refcount+1), and the machine prefills only the un-cached suffix.
 * Eviction (LRU at refcount zero), a crashed machine, or a context
 * at the API cap all degrade to miss-and-recompute.
 *
 * Every method runs synchronously inside the event that triggers it,
 * so a prepareRoute() decision and the routing it biases are atomic
 * with respect to simulated time.
 */
class PrefixCache {
  public:
    /** @p machines: the cluster's machines, indexable by
     *  Machine::id(). */
    PrefixCache(const PolicyConfig& config,
                std::vector<engine::Machine*> machines);
    PrefixCache(const PrefixCache&) = delete;
    PrefixCache& operator=(const PrefixCache&) = delete;

    /**
     * Called before a request is routed. Tags the request
     * (LiveRequest::cachedPrefixTokens) and returns the id of the
     * machine holding its session's prefix, or -1 for no preference.
     * The router may ignore the preference (machine unrouted or
     * failed); machine-level fallback keeps the request correct
     * regardless.
     */
    int prepareRoute(engine::LiveRequest& request);

    /** Called when a request's full prompt has been computed on
     *  @p machine, before the completion is routed onward. */
    void onPrefillComplete(engine::Machine& machine,
                           engine::LiveRequest& request);

    /** Called when @p machine_id crashes (its KV and cached prefixes
     *  are gone). */
    void onMachineFailed(int machine_id);

    /** Called by the router when it honoured a prepareRoute()
     *  preference. */
    void noteAffinityRoute() { ++stats_.affinityRoutes; }

    DirectoryStats stats() const;

  private:
    PolicyConfig config_;
    /** The cluster's machines, indexed by id. */
    std::vector<engine::Machine*> machines_;
    /** session → machine id that holds its cached prefix. */
    std::unordered_map<std::uint64_t, int> directory_;
    DirectoryStats stats_;
};

}  // namespace splitwise::sched

#endif  // SPLITWISE_SCHED_POLICY_H_
