#include "engine/mls.h"

#include <algorithm>
#include <limits>

#include "sim/log.h"

namespace splitwise::engine {

const char*
batchPolicyName(BatchPolicy policy)
{
    switch (policy) {
      case BatchPolicy::kRequestLevel: return "request-level";
      case BatchPolicy::kContinuous: return "continuous";
      case BatchPolicy::kMixed: return "mixed";
    }
    return "?";
}

std::int64_t
BatchPlan::contextTokens() const
{
    std::int64_t total = 0;
    for (const auto* r : decodes)
        total += r->contextTokens();
    return total;
}

std::int64_t
BatchPlan::activeTokens() const
{
    return promptTokens + static_cast<std::int64_t>(decodes.size());
}

model::IterationShape
BatchPlan::shape() const
{
    model::IterationShape s;
    s.promptTokens = promptTokens;
    s.promptRequests = static_cast<int>(prompts.size());
    s.tokenRequests = static_cast<int>(decodes.size());
    s.contextTokens = contextTokens();
    return s;
}

Mls::Mls(MlsConfig config, std::int64_t kv_capacity_tokens,
         int block_size_tokens)
    : config_(config), blocks_(kv_capacity_tokens, block_size_tokens)
{
    if (config_.promptTokenBudget <= 0)
        sim::fatal("Mls: promptTokenBudget must be positive");
    if (config_.maxBatchSize <= 0)
        sim::fatal("Mls: maxBatchSize must be positive");
}

std::int64_t
Mls::promptWorkTokens(const LiveRequest* request)
{
    // A preempted-and-recomputed request must re-process its whole
    // accumulated context, not just the original prompt.
    return request->generated > 0 ? request->contextTokens()
                                  : request->spec.promptTokens;
}

void
Mls::enqueuePrompt(LiveRequest* request)
{
    // A request must be able to finish: its full final context
    // (prompt plus every generated token) has to fit in KV.
    const std::int64_t final_context =
        request->spec.promptTokens + request->spec.outputTokens;
    if (blocks_.blocksFor(final_context) > blocks_.totalBlocks()) {
        sim::fatal("Mls: request " + std::to_string(request->spec.id) +
                   " needs more KV than the machine holds");
    }
    request->phase = RequestPhase::kPromptQueued;
    promptQueue_.push_back(request);
}

void
Mls::addResident(LiveRequest* request)
{
    if (!blocks_.holds(*request)) {
        sim::panic("Mls::addResident without a KV allocation: request " +
                   std::to_string(request->spec.id) + " phase " +
                   std::to_string(static_cast<int>(request->phase)) +
                   " promptMachine " + std::to_string(request->promptMachine) +
                   " tokenMachine " + std::to_string(request->tokenMachine) +
                   " generated " + std::to_string(request->generated) +
                   " restarts " + std::to_string(request->restarts) +
                   " preemptions " + std::to_string(request->preemptions) +
                   " epoch " + std::to_string(request->restartEpoch));
    }
    request->phase = RequestPhase::kDecoding;
    request->starvedIterations = 0;
    residents_.push_back(request);
}

void
Mls::finish(LiveRequest* request)
{
    blocks_.release(*request);
    const auto it =
        std::find(residents_.begin(), residents_.end(), request);
    if (it != residents_.end())
        residents_.erase(it);
    requestLevelBatch_.erase(request);
}

void
Mls::clearAll()
{
    promptQueue_.clear();
    residents_.clear();
    requestLevelBatch_.clear();
    // The reset voids every request's hold here without visiting it:
    // queued, resident, in-flight and inbound-transfer KV alike,
    // along with every cached shared prefix, since the machine's
    // memory is gone. Lifetime cache counters survive the wipe.
    blocks_.reset();
}

std::int64_t
Mls::pendingPromptTokens() const
{
    std::int64_t total = 0;
    for (const auto* r : promptQueue_)
        total += promptWorkTokens(r) - r->promptProcessed;
    return total;
}

std::int64_t
Mls::residentContextTokens() const
{
    std::int64_t total = 0;
    for (const auto* r : residents_)
        total += r->contextTokens();
    return total;
}

bool
Mls::queued(const LiveRequest* request) const
{
    return std::find(promptQueue_.begin(), promptQueue_.end(), request) !=
           promptQueue_.end();
}

bool
Mls::resident(const LiveRequest* request) const
{
    return std::find(residents_.begin(), residents_.end(), request) !=
           residents_.end();
}

bool
Mls::hasWork() const
{
    return !promptQueue_.empty() || !residents_.empty();
}

void
Mls::admitPrompts(BatchPlan& plan, std::int64_t token_budget, int slot_budget,
                  bool chunked)
{
    std::int64_t budget = token_budget;
    while (!promptQueue_.empty() && budget > 0 &&
           static_cast<int>(plan.prompts.size()) < slot_budget) {
        LiveRequest* req = promptQueue_.front();
        const std::int64_t remaining =
            promptWorkTokens(req) - req->promptProcessed;
        // KV for the whole prompt (plus the token it produces) must
        // be allocatable up front; FCFS means a stuck head blocks
        // the queue. A partially-chunked head already holds blocks.
        if (!blocks_.holds(*req) &&
            !blocks_.allocate(*req, promptWorkTokens(req) + 1)) {
            break;
        }
        std::int64_t take = 0;
        if (chunked) {
            // Chunked prefill: only a bounded slice runs alongside
            // the resident decodes (Fig. 2c / Sarathi [23]).
            take = std::min(remaining, budget);
        } else if (plan.prompts.empty()) {
            // A single oversized prompt still runs, whole and alone.
            take = remaining;
        } else if (remaining <= budget) {
            take = remaining;
        } else {
            // Would exceed the batch budget (Insight IV).
            break;
        }
        req->phase = RequestPhase::kPromptRunning;
        req->chunkTokens = take;
        plan.prompts.push_back(req);
        plan.promptTokens += take;
        budget -= take;
        if (take < remaining) {
            // Partial chunk: the request stays at the queue head for
            // its next chunk.
            break;
        }
        promptQueue_.pop_front();
    }
}

void
Mls::admitDecodes(BatchPlan& plan, int slot_budget)
{
    for (LiveRequest* req : residents_) {
        if (static_cast<int>(plan.decodes.size()) >= slot_budget) {
            ++req->starvedIterations;
            continue;
        }
        // Reserve room for the token this iteration will produce.
        if (blocks_.extend(*req, req->contextTokens() + 1)) {
            plan.decodes.push_back(req);
        } else {
            ++req->starvedIterations;
        }
    }
}

bool
Mls::preemptForMemory()
{
    if (residents_.empty())
        return false;
    // Preempt the newest resident (vLLM-style): release its KV and
    // recompute its context later. Ageing in admitDecodes plus FCFS
    // recompute placement at the queue front bound starvation.
    LiveRequest* victim = residents_.back();
    residents_.pop_back();
    blocks_.release(*victim);
    ++victim->preemptions;
    ++preemptions_;
    victim->phase = RequestPhase::kPromptQueued;
    victim->promptProcessed = 0;
    // release() dropped the victim's prefix pin; the recompute runs
    // the full context as a plain prefill.
    victim->cachedPrefixTokens = 0;
    promptQueue_.push_front(victim);
    if (onPreempt_)
        onPreempt_(victim);
    return true;
}

void
Mls::planMixed(BatchPlan& plan)
{
    // With decodes resident, prompts are chunked so the decodes'
    // iteration latency stays bounded; an idle-of-decodes machine
    // runs full prompt batches at peak efficiency.
    const bool chunk = config_.promptChunkTokens > 0 && hasDecodeWork();
    const std::int64_t budget =
        chunk ? std::min(config_.promptChunkTokens, config_.promptTokenBudget)
              : config_.promptTokenBudget;
    admitPrompts(plan, budget, config_.maxBatchSize, chunk);
    const int slots =
        config_.maxBatchSize - static_cast<int>(plan.prompts.size());
    admitDecodes(plan, slots);
}

void
Mls::planContinuous(BatchPlan& plan)
{
    // Ageing: once any resident has been preempted past the limit,
    // the token phase runs regardless of waiting prompts (SIV-B).
    bool starving = false;
    for (const auto* r : residents_) {
        if (r->starvedIterations >= config_.maxPreemptions) {
            starving = true;
            break;
        }
    }

    if (!promptQueue_.empty() && !starving) {
        admitPrompts(plan, config_.promptTokenBudget, config_.maxBatchSize,
                     /*chunked=*/false);
        if (!plan.prompts.empty()) {
            // Residents are preempted by this prompt batch.
            for (auto* r : residents_) {
                ++r->starvedIterations;
                ++r->preemptions;
            }
            return;
        }
    }

    admitDecodes(plan, config_.maxBatchSize);
    for (auto* r : plan.decodes)
        r->starvedIterations = 0;
}

void
Mls::planRequestLevel(BatchPlan& plan)
{
    if (requestLevelBatch_.empty()) {
        // Form a fresh batch from every ready request (no token
        // budget: that is exactly the policy's weakness).
        admitPrompts(plan, std::numeric_limits<std::int64_t>::max(),
                     config_.maxBatchSize, /*chunked=*/false);
        for (auto* r : plan.prompts)
            requestLevelBatch_.insert(r);
        return;
    }

    // A preempted member recomputes within the current batch; new
    // arrivals wait for the batch to drain.
    if (!promptQueue_.empty() &&
        requestLevelBatch_.count(promptQueue_.front()) > 0) {
        admitPrompts(plan, std::numeric_limits<std::int64_t>::max(),
                     config_.maxBatchSize, /*chunked=*/false);
    }
    admitDecodes(plan,
                 config_.maxBatchSize - static_cast<int>(plan.prompts.size()));
}

void
Mls::nextBatch(BatchPlan& plan)
{
    // Each failed attempt preempts one resident, so the loop is
    // bounded by the resident count.
    while (true) {
        plan.clear();
        switch (config_.policy) {
          case BatchPolicy::kMixed:
            planMixed(plan);
            break;
          case BatchPolicy::kContinuous:
            planContinuous(plan);
            break;
          case BatchPolicy::kRequestLevel:
            planRequestLevel(plan);
            break;
        }
        if (!plan.empty())
            return;
        // Nothing runnable with work pending means memory is wedged:
        // free some by preempting a resident and retry.
        if (!hasWork() || !preemptForMemory())
            return;
    }
}

}  // namespace splitwise::engine
