#include "sched/policy.h"

#include <utility>

#include "engine/machine.h"
#include "engine/request.h"
#include "sim/log.h"

namespace splitwise::sched {

namespace {

constexpr PolicyKind kPolicyKinds[] = {PolicyKind::kDefault,
                                       PolicyKind::kPrefixCache};

}  // namespace

const char*
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::kDefault: return "default";
      case PolicyKind::kPrefixCache: return "prefix";
    }
    return "?";
}

bool
parsePolicyKind(const std::string& name, PolicyKind* out)
{
    for (const PolicyKind kind : kPolicyKinds) {
        if (name == policyKindName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

std::string
policyNames()
{
    std::string names;
    for (const PolicyKind kind : kPolicyKinds) {
        if (!names.empty())
            names += ", ";
        names += policyKindName(kind);
    }
    return names;
}

PrefixCache::PrefixCache(const PolicyConfig& config,
                         std::vector<engine::Machine*> machines)
    : config_(config), machines_(std::move(machines))
{
    if (config_.maxContextTokens < 1)
        sim::fatal("PrefixCache: bad context cap");
}

int
PrefixCache::prepareRoute(engine::LiveRequest& request)
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
PrefixCache::onPrefillComplete(engine::Machine& machine,
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
PrefixCache::onMachineFailed(int machine_id)
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

DirectoryStats
PrefixCache::stats() const
{
    DirectoryStats out = stats_;
    out.directorySize = directory_.size();
    return out;
}

}  // namespace splitwise::sched
