#ifndef SPLITWISE_ENGINE_REQUEST_H_
#define SPLITWISE_ENGINE_REQUEST_H_

#include <array>
#include <cstdint>

#include "metrics/request_metrics.h"
#include "sim/time.h"
#include "telemetry/span_tracker.h"
#include "workload/trace.h"

namespace splitwise::engine {

/** Lifecycle of an inference request inside the cluster. */
enum class RequestPhase {
    /** Waiting in a prompt queue. */
    kPromptQueued,
    /** Prompt tokens being computed this iteration. */
    kPromptRunning,
    /** KV-cache in flight to the token machine. */
    kTransferring,
    /** Resident on a token machine, generating. */
    kDecoding,
    /** All output tokens produced. */
    kDone,
    /** Shed by admission control before any work ran (terminal). */
    kRejected,
};

/** Human-readable phase name. */
const char* requestPhaseName(RequestPhase phase);

class BlockManager;

/**
 * One request's KV footprint on one machine: its private block table
 * (vLLM-style, net of any pinned shared prefix) and its pin on a
 * shared session prefix. The request row owns the record; the
 * machine's BlockManager keeps only aggregates and finds the hold by
 * owner. A hold is live while its owner's generation matches, so a
 * crash (BlockManager::reset) voids every hold on the machine at once.
 */
struct KvHold {
    /** Allocator holding the KV; nullptr while the record is unused.
     *  Machines outlive the requests they serve, so a stale owner is
     *  still safe to read. */
    const BlockManager* owner = nullptr;
    /** The owner's generation when the hold was taken. */
    std::uint32_t generation = 0;
    /** True once a private allocation exists (possibly of 0 tokens). */
    bool allocated = false;
    /** Private context tokens and the blocks holding them. */
    std::int64_t tokens = 0;
    std::int64_t blocks = 0;
    /** Pinned shared-prefix key and its acquire-time size (0 = no pin). */
    std::uint64_t prefixKey = 0;
    std::int64_t prefixTokens = 0;
};

/**
 * Mutable simulation state of one request.
 *
 * Owned by the cluster; machines and the transfer engine hold
 * non-owning pointers while the request is in flight.
 */
struct LiveRequest {
    workload::Request spec;
    RequestPhase phase = RequestPhase::kPromptQueued;

    /** Output tokens produced so far (the prompt yields the first). */
    std::int64_t generated = 0;

    /**
     * Prompt tokens already computed in earlier chunked-prefill
     * iterations (Sarathi-style mixed batching splits prompts into
     * chunks so co-scheduled decodes keep bounded latency).
     */
    std::int64_t promptProcessed = 0;

    /** Prompt tokens assigned to the current iteration's chunk. */
    std::int64_t chunkTokens = 0;

    sim::TimeUs firstTokenTime = -1;
    sim::TimeUs prevTokenTime = -1;
    sim::TimeUs doneTime = -1;

    /** Sum and max of inter-token gaps, for TBT metrics. */
    double sumTbtMs = 0.0;
    double maxTbtMs = 0.0;
    /** Gap between first and second token (KV transfer shows here). */
    double secondTokenMs = 0.0;

    /** Times the token phase was preempted or recomputed. */
    int preemptions = 0;
    /** Iterations this request sat resident but unscheduled. */
    int starvedIterations = 0;
    /** Times the request restarted after a machine failure (SIV-E). */
    int restarts = 0;
    /**
     * Bumped on every restart; in-flight events captured under an
     * older epoch must not touch the request.
     */
    std::uint32_t restartEpoch = 0;

    /** Machine ids; -1 while unassigned. Equal ids mean no transfer. */
    int promptMachine = -1;
    int tokenMachine = -1;

    /**
     * Leading prompt tokens served from a shared session prefix
     * (prefix-cache policy): set at routing, pinned at submit, and
     * priced out of prefill — the machine computes only the suffix.
     * 0 = full prefill (default policy, or a cache miss).
     */
    std::int64_t cachedPrefixTokens = 0;

    /**
     * KV holds. Two suffice: a request holds KV on at most the source
     * and the destination of one transfer.
     */
    std::array<KvHold, 2> kv{};

    /**
     * Span timeline (SpanTracker); stays empty unless span tracking
     * is on. The pool keeps its segment capacity across recycling.
     */
    telemetry::RequestSpans spans;

    /**
     * Slot index inside the owning RequestPool; pool bookkeeping
     * only. Preserved (with restartEpoch) across slot recycling.
     */
    std::uint32_t poolSlot = 0;

    /**
     * Trace only: the KV handoff delivered this request and its flow
     * arrow still awaits the flowEnd of its first decode iteration.
     * Survives resetForRestart; only that decode iteration clears it.
     */
    bool kvFlowPending = false;

    /** KV context tokens accumulated so far. */
    std::int64_t
    contextTokens() const
    {
        return spec.promptTokens + generated;
    }

    /** True once every output token has been produced. */
    bool
    finished() const
    {
        return generated >= spec.outputTokens;
    }

    /** True when admission control shed the request. */
    bool
    rejected() const
    {
        return phase == RequestPhase::kRejected;
    }

    /** True when the request needs no further simulation work. */
    bool
    terminal() const
    {
        return finished() || rejected();
    }

    /**
     * Account one produced token at simulated time @p now, updating
     * TTFT/TBT bookkeeping.
     */
    void recordToken(sim::TimeUs now);

    /**
     * Reset all execution state for a from-scratch restart after a
     * machine failure (SIV-E). The arrival time is kept, so the
     * recorded TTFT/E2E include the lost work.
     */
    void resetForRestart();

    /** Convert to the final metrics record (valid once finished). */
    metrics::RequestResult result() const;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_REQUEST_H_
