#include "sched/policy.h"

#include "engine/machine.h"
#include "engine/request.h"
#include "sim/log.h"

namespace splitwise::sched {

const std::vector<PolicyFactory>&
policyRegistry()
{
    static const std::vector<PolicyFactory> registry = {
        {PolicyKind::kDefault, "default",
         "the unmodified two-level scheduler",
         [](const PolicyConfig&) -> std::unique_ptr<Policy> {
             return std::make_unique<DefaultPolicy>();
         }},
        {PolicyKind::kPrefixCache, "prefix",
         "session prefix-cache KV reuse with affinity routing",
         [](const PolicyConfig& config) -> std::unique_ptr<Policy> {
             return std::make_unique<PrefixCachePolicy>(config);
         }},
    };
    return registry;
}

const PolicyFactory*
findPolicy(const std::string& name)
{
    for (const PolicyFactory& factory : policyRegistry()) {
        if (name == factory.name)
            return &factory;
    }
    return nullptr;
}

std::string
policyNames()
{
    std::string names;
    for (const PolicyFactory& factory : policyRegistry()) {
        if (!names.empty())
            names += ", ";
        names += factory.name;
    }
    return names;
}

const char*
policyKindName(PolicyKind kind)
{
    for (const PolicyFactory& factory : policyRegistry()) {
        if (factory.kind == kind)
            return factory.name;
    }
    return "?";
}

bool
parsePolicyKind(const std::string& name, PolicyKind* out)
{
    const PolicyFactory* factory = findPolicy(name);
    if (!factory)
        return false;
    *out = factory->kind;
    return true;
}

Policy::~Policy() = default;

void
Policy::bind(const std::vector<engine::Machine*>&)
{
}

int
Policy::prepareRoute(engine::LiveRequest&)
{
    return -1;
}

void
Policy::onPrefillComplete(engine::Machine&, engine::LiveRequest&)
{
}

void
Policy::onMachineFailed(int)
{
}

PolicyStats
Policy::stats() const
{
    return stats_;
}

PrefixCachePolicy::PrefixCachePolicy(const PolicyConfig& config)
    : config_(config)
{
    if (config_.maxContextTokens < 1)
        sim::fatal("PrefixCachePolicy: bad context cap");
}

void
PrefixCachePolicy::bind(const std::vector<engine::Machine*>& machines)
{
    machines_ = machines;
}

int
PrefixCachePolicy::prepareRoute(engine::LiveRequest& request)
{
    request.cachedPrefixTokens = 0;
    const std::uint64_t session = request.spec.session;
    if (session == 0)
        return -1;  // Standalone request; sessions only.
    const auto it = directory_.find(session);
    if (it == directory_.end()) {
        ++stats_.directoryMisses;
        return -1;
    }
    engine::Machine* machine = machines_[static_cast<std::size_t>(it->second)];
    const std::int64_t cached = machine->mls().blocks().lookupPrefix(session);
    if (cached == 0) {
        // Evicted (or wiped by a crash the failure hook has not seen,
        // e.g. a recovered machine): forget the session.
        ++stats_.directoryMisses;
        directory_.erase(it);
        return -1;
    }
    if (!workload::contextPrefixValid(cached, request.spec.promptTokens,
                                      config_.maxContextTokens)) {
        // The prompt reached the API context cap, so the stored
        // context may no longer be a true prefix (sliding window):
        // conservative miss-and-recompute.
        ++stats_.directoryMisses;
        return -1;
    }
    request.cachedPrefixTokens = cached;
    return it->second;
}

void
PrefixCachePolicy::onPrefillComplete(engine::Machine& machine,
                                     engine::LiveRequest& request)
{
    const std::uint64_t session = request.spec.session;
    if (session == 0)
        return;
    // The full prompt context is now resident on this machine; keep
    // it for the session's next turn. The prompt itself was already
    // capped by the generator, so "truncated" reduces to sitting at
    // the cap (accumulateContext pins capped sessions there forever).
    const workload::ContextAccum context{
        request.spec.promptTokens,
        request.spec.promptTokens >= config_.maxContextTokens};
    if (!workload::contextCacheStorable(context, config_.maxContextTokens))
        return;
    if (machine.mls().blocks().storePrefix(session,
                                           request.spec.promptTokens)) {
        directory_[session] = machine.id();
    }
    // On store failure (no reclaimable room) any older directory
    // entry stays: a smaller prefix elsewhere is still a valid one.
}

void
PrefixCachePolicy::onMachineFailed(int machine_id)
{
    // The crash wiped the machine's KV including its cached
    // prefixes; follow-up turns must miss and recompute.
    for (auto it = directory_.begin(); it != directory_.end();) {
        if (it->second == machine_id)
            it = directory_.erase(it);
        else
            ++it;
    }
}

PolicyStats
PrefixCachePolicy::stats() const
{
    PolicyStats out = stats_;
    out.directorySize = directory_.size();
    return out;
}

std::unique_ptr<Policy>
makePolicy(const PolicyConfig& config)
{
    for (const PolicyFactory& factory : policyRegistry()) {
        if (factory.kind == config.kind)
            return factory.make(config);
    }
    sim::fatal("makePolicy: unknown policy kind");
    return nullptr;
}

}  // namespace splitwise::sched
