#ifndef SPLITWISE_ENGINE_MLS_H_
#define SPLITWISE_ENGINE_MLS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "engine/block_manager.h"
#include "engine/request.h"
#include "model/perf_model.h"

namespace splitwise::engine {

/** Batching mechanisms compared in the paper (Fig. 2). */
enum class BatchPolicy {
    /** Batch at request level; batch runs until all members finish. */
    kRequestLevel,
    /** Per-iteration scheduling, pure prompt or pure token batches;
     *  prompts preempt token phases (Orca-style). */
    kContinuous,
    /** Per-iteration scheduling with prompts and tokens co-scheduled
     *  (Sarathi-style; the paper's default). */
    kMixed,
};

/** Human-readable policy name. */
const char* batchPolicyName(BatchPolicy policy);

/** Tunables of the machine-level scheduler (paper SIV-B). */
struct MlsConfig {
    BatchPolicy policy = BatchPolicy::kMixed;
    /** Max prompt tokens batched together (2048; Fig. 6a). */
    std::int64_t promptTokenBudget = 2048;
    /**
     * Prompt tokens per iteration while decodes are co-resident
     * (Sarathi-style chunked prefill [23]); bounds the latency hit
     * mixed batching inflicts on token phases, at the cost of prompt
     * throughput. 0 (the default, matching the paper's mixed
     * continuous batching) runs whole prompts alongside decodes, so
     * co-scheduled token phases experience the full prompt runtime.
     */
    std::int64_t promptChunkTokens = 0;
    /** Hard cap on requests per iteration. */
    int maxBatchSize = 256;
    /** Token-phase preemptions allowed before ageing forces a run. */
    int maxPreemptions = 4;
};

/**
 * One iteration's batch: the prompt chunk and the decode set
 * (either side may be empty depending on policy and queues).
 */
struct BatchPlan {
    std::vector<LiveRequest*> prompts;
    std::vector<LiveRequest*> decodes;
    std::int64_t promptTokens = 0;

    bool
    empty() const
    {
        return prompts.empty() && decodes.empty();
    }

    /** Empty the plan, keeping vector capacity for reuse. */
    void
    clear()
    {
        prompts.clear();
        decodes.clear();
        promptTokens = 0;
    }

    /** Total KV context under the decode side. */
    std::int64_t contextTokens() const;

    /**
     * Active tokens in the paper's Fig. 4 sense: each prompt token
     * counts, each decode sequence counts as one.
     */
    std::int64_t activeTokens() const;

    /** Shape handed to the performance model. */
    model::IterationShape shape() const;
};

/**
 * The machine-level scheduler: owns the pending prompt queue, the
 * resident decode set, and the KV block manager; decides each
 * iteration's batch according to the configured policy.
 *
 * Pure logic - no simulator dependency - so each policy is unit
 * testable. The Machine drives it: nextBatch() at every iteration
 * boundary, then the completion notifications.
 */
class Mls {
  public:
    Mls(MlsConfig config, std::int64_t kv_capacity_tokens,
        int block_size_tokens = 16);

    /** FCFS-enqueue a request needing prompt computation. */
    void enqueuePrompt(LiveRequest* request);

    /**
     * Add a decode-phase resident whose KV blocks are already
     * allocated (local prompt completion or a finished transfer-in).
     */
    void addResident(LiveRequest* request);

    /**
     * Remove a request from the resident set and release its blocks
     * (request finished or was migrated away).
     */
    void finish(LiveRequest* request);

    /**
     * Drop every queued prompt, resident, and KV allocation (machine
     * failure, SIV-E). The owner restarts the affected requests.
     */
    void clearAll();

    /**
     * Plan the next iteration into @p plan (cleared first, capacity
     * reused - the Machine hot path passes the same plan every
     * iteration so steady state never allocates). May preempt a
     * resident (releasing its KV and re-queueing it for
     * recomputation) when memory is wedged; leaves @p plan empty when
     * there is nothing runnable.
     */
    void nextBatch(BatchPlan& plan);

    /** Convenience by-value wrapper (tests). */
    BatchPlan
    nextBatch()
    {
        BatchPlan plan;
        nextBatch(plan);
        return plan;
    }

    /** The paged KV allocator (shared with the owning machine). */
    BlockManager& blocks() { return blocks_; }
    const BlockManager& blocks() const { return blocks_; }

    /** Pending prompt work in tokens (the CLS's JSQ signal). */
    std::int64_t pendingPromptTokens() const;

    /** Number of queued prompt requests. */
    std::size_t pendingPrompts() const { return promptQueue_.size(); }

    /** Number of resident decode requests. */
    std::size_t residentCount() const { return residents_.size(); }

    /** True when @p request sits in the pending prompt queue. */
    bool queued(const LiveRequest* request) const;

    /** True when @p request is in the resident decode set. */
    bool resident(const LiveRequest* request) const;

    /** Total KV context tokens across residents. */
    std::int64_t residentContextTokens() const;

    /** True when any work (prompt or decode) is pending. */
    bool hasWork() const;

    /** True when prompt work is pending. */
    bool hasPromptWork() const { return !promptQueue_.empty(); }

    /** True when decode work is pending. */
    bool hasDecodeWork() const { return !residents_.empty(); }

    /** Total preemption-recompute events (statistics). */
    std::uint64_t preemptionCount() const { return preemptions_; }

    /**
     * Observer called when a resident is preempted back into the
     * prompt queue. The Machine installs it to make itself the
     * victim's prompt machine and to return preempted decode time to
     * the queue phase.
     */
    void
    setPreemptHook(std::function<void(LiveRequest*)> hook)
    {
        onPreempt_ = std::move(hook);
    }

    const MlsConfig& config() const { return config_; }

  private:
    /** Tokens a prompt-phase run of @p request must process. */
    static std::int64_t promptWorkTokens(const LiveRequest* request);

    /**
     * Admit prompts from the queue head into @p plan. With
     * @p chunked set, only a bounded slice of the head prompt runs
     * this iteration (chunked prefill).
     */
    void admitPrompts(BatchPlan& plan, std::int64_t token_budget,
                      int slot_budget, bool chunked);

    /** Admit runnable residents into @p plan. */
    void admitDecodes(BatchPlan& plan, int slot_budget);

    /** Policy planners fill an already-cleared @p plan. */
    void planMixed(BatchPlan& plan);
    void planContinuous(BatchPlan& plan);
    void planRequestLevel(BatchPlan& plan);

    /**
     * Preempt the newest resident to unwedge memory: release its KV
     * and push it to the front of the prompt queue for
     * recomputation.
     *
     * @return true if a victim was preempted.
     */
    bool preemptForMemory();

    MlsConfig config_;
    BlockManager blocks_;
    std::deque<LiveRequest*> promptQueue_;
    std::vector<LiveRequest*> residents_;
    /** Members of the in-flight request-level batch. */
    std::unordered_set<LiveRequest*> requestLevelBatch_;
    std::uint64_t preemptions_ = 0;
    std::function<void(LiveRequest*)> onPreempt_;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_MLS_H_
