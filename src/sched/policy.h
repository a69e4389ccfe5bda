#ifndef SPLITWISE_SCHED_POLICY_H_
#define SPLITWISE_SCHED_POLICY_H_

/**
 * @file
 * Scheduling-policy plug-in seam.
 *
 * The two-level scheduler (cluster-level routing in ClusterScheduler,
 * machine-level batching in Mls) is the *mechanism*; a sched::Policy
 * composes serving techniques on top of it through a small set of
 * hooks called at routing and prefill-completion time. The default
 * policy implements every hook as the identity, so selecting it is
 * byte-identical to having no policy at all — the contract the golden
 * reports pin. PrefixCachePolicy is the first non-default policy:
 * session prefix-cache KV reuse with affinity routing. The same seam
 * is where speculative decoding and LoRA tenancy land next.
 */

#include <cstdint>
#include <memory>
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
    /** The unmodified two-level scheduler (identity hooks). */
    kDefault,
    /** Session prefix-cache KV reuse with affinity routing. */
    kPrefixCache,
};

/** "default" / "prefix". */
const char* policyKindName(PolicyKind kind);

/** Inverse of policyKindName; false on unknown names. */
bool parsePolicyKind(const std::string& name, PolicyKind* out);

struct PolicyConfig;
class Policy;

/**
 * One registry entry: a stable CLI name, a one-line description for
 * --help/error text, and the factory. The registry table is the
 * single authority mapping names to policies — policyKindName,
 * parsePolicyKind, makePolicy, and the --policy bench/server flag
 * are all views over it.
 */
struct PolicyFactory {
    PolicyKind kind;
    const char* name;
    const char* description;
    std::unique_ptr<Policy> (*make)(const PolicyConfig& config);
};

/** Every registered policy, in a stable (enum) order. */
const std::vector<PolicyFactory>& policyRegistry();

/** Registry entry for @p name; nullptr on unknown names. */
const PolicyFactory* findPolicy(const std::string& name);

/** The registered names, comma-separated — for CLI error text. */
std::string policyNames();

/** Policy selection plus the knobs of the non-default policies. */
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

/** Cluster-level counters a policy accumulates across a run. */
struct PolicyStats {
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
 * A scheduling policy: hooks invoked by the cluster around the
 * two-level scheduler. Hooks run synchronously inside the event that
 * triggers them, so a prepareRoute() decision and the routing it
 * biases are atomic with respect to simulated time.
 */
class Policy {
  public:
    virtual ~Policy();

    virtual PolicyKind kind() const = 0;
    const char* name() const { return policyKindName(kind()); }

    /** The cluster's machines, indexable by Machine::id(). Called
     *  once before the run starts. */
    virtual void bind(const std::vector<engine::Machine*>& machines);

    /**
     * Called before a request is routed. The policy may tag the
     * request (e.g. LiveRequest::cachedPrefixTokens) and return the
     * machine id the router should prefer for the prompt phase, or
     * -1 for no preference. The router is free to ignore the
     * preference (machine unrouted/failed); machine-level fallback
     * must keep the request correct regardless.
     */
    virtual int prepareRoute(engine::LiveRequest& request);

    /** Called when a request's full prompt has been computed on
     *  @p machine, before the completion is routed onward. */
    virtual void onPrefillComplete(engine::Machine& machine,
                                   engine::LiveRequest& request);

    /** Called when @p machine_id crashes (its KV and cached prefixes
     *  are gone). */
    virtual void onMachineFailed(int machine_id);

    /** Called by the router when it honoured a prepareRoute()
     *  preference. */
    void noteAffinityRoute() { ++stats_.affinityRoutes; }

    virtual PolicyStats stats() const;

  protected:
    PolicyStats stats_;
};

/** The identity policy: the two-level scheduler, unchanged. */
class DefaultPolicy final : public Policy {
  public:
    PolicyKind kind() const override { return PolicyKind::kDefault; }
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
 */
class PrefixCachePolicy final : public Policy {
  public:
    explicit PrefixCachePolicy(const PolicyConfig& config);

    PolicyKind kind() const override { return PolicyKind::kPrefixCache; }
    void bind(const std::vector<engine::Machine*>& machines) override;
    int prepareRoute(engine::LiveRequest& request) override;
    void onPrefillComplete(engine::Machine& machine,
                           engine::LiveRequest& request) override;
    void onMachineFailed(int machine_id) override;
    PolicyStats stats() const override;

  private:
    PolicyConfig config_;
    /** The bound machines, indexed by id. */
    std::vector<engine::Machine*> machines_;
    /** session → machine id that holds its cached prefix. */
    std::unordered_map<std::uint64_t, int> directory_;
};

/** Construct the policy selected by @p config; never null. */
std::unique_ptr<Policy> makePolicy(const PolicyConfig& config);

}  // namespace splitwise::sched

#endif  // SPLITWISE_SCHED_POLICY_H_
