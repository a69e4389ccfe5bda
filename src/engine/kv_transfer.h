#ifndef SPLITWISE_ENGINE_KV_TRANSFER_H_
#define SPLITWISE_ENGINE_KV_TRANSFER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "engine/machine.h"
#include "engine/request.h"
#include "model/llm_config.h"
#include "model/transfer_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace splitwise::engine {

/**
 * Transient-fault handling policy for KV-cache transfers.
 *
 * A transfer attempt that a link fault kills (or that outlives its
 * timeout) is retried with exponential backoff while the destination
 * reservation is kept warm. Only once the retry budget is exhausted
 * does the engine abort and hand the request back to its owner for a
 * from-scratch restart - the paper's blunt recovery policy becomes
 * the last resort rather than the only answer.
 */
struct KvRetryPolicy {
    /** Re-attempts after the first failed try; 0 = fail fast. */
    int maxRetries = 3;
    /** Backoff before the first retry. */
    sim::TimeUs backoffBaseUs = 2000;
    /** Growth factor of successive backoffs. */
    double backoffMultiplier = 2.0;
    /** Per-attempt wall-clock timeout; 0 disables timeouts. */
    sim::TimeUs timeoutUs = 0;
};

/**
 * Simulated MSCCL++-style KV-cache mover between machines
 * (paper SIV-C, SV-A).
 *
 * When a prompt completes on a prompt machine, the engine reserves
 * KV blocks on the destination token machine, occupies both NICs
 * for the transfer's visible duration (serialized for small
 * prompts, layer-wise overlapped for large ones), then hands the
 * request to the destination. Transfers that cannot reserve
 * destination memory wait in a per-destination queue and retry when
 * blocks free up - the paper's "MLS starts queueing tokens once the
 * machine is close to running out of memory".
 *
 * Fault model: a NIC/link can be marked faulty or degraded for a
 * time window (injectLinkFault / injectLinkDegrade). Attempts whose
 * wire time overlaps a fault window fail and are retried per the
 * KvRetryPolicy; degraded windows stretch the visible transfer time
 * by the inverse bandwidth factor.
 */
class KvTransferEngine {
  public:
    /** Aggregate transfer statistics. */
    struct Stats {
        std::uint64_t transfers = 0;
        std::uint64_t layerwiseTransfers = 0;
        std::int64_t bytesMoved = 0;
        sim::TimeUs totalVisibleUs = 0;
        std::uint64_t memoryStalls = 0;
        /** Attempts killed by an injected link fault. */
        std::uint64_t transferFaults = 0;
        /** Attempts that outlived the per-attempt timeout. */
        std::uint64_t transferTimeouts = 0;
        /** Backoff-delayed re-attempts scheduled. */
        std::uint64_t transferRetries = 0;
        /** Transfers given up after exhausting the retry budget. */
        std::uint64_t transferAborts = 0;
        /** Attempts priced under a degraded-bandwidth window. */
        std::uint64_t degradedTransfers = 0;
    };

    /** Invoked when a transfer exhausts its retry budget. */
    using AbortCallback = std::function<void(LiveRequest*)>;

    /**
     * @param layerwise_threshold_tokens Prompt size at or above
     *     which layer-wise transfer is used.
     * @param compression_ratio Wire-size divisor from KV-cache
     *     compression before transfer (paper SVII); 1.0 = raw.
     */
    KvTransferEngine(sim::Simulator& simulator, model::LlmConfig llm,
                     std::int64_t layerwise_threshold_tokens = 512,
                     double compression_ratio = 1.0);

    /** Make a machine addressable as a transfer endpoint. Machines
     *  register in id order, 0..N-1. */
    void registerMachine(Machine* machine);

    /** Install the transient-fault retry policy. */
    void setRetryPolicy(KvRetryPolicy policy) { retry_ = policy; }

    /**
     * Install the owner's give-up hook. The request's source-side and
     * destination-side KV is already released when it fires; the
     * owner restarts the request from scratch.
     */
    void setOnAbort(AbortCallback on_abort) { onAbort_ = std::move(on_abort); }

    /**
     * Mark @p machine_id's NIC faulty during [from, until): any
     * transfer attempt whose wire time overlaps the window fails.
     */
    void injectLinkFault(int machine_id, sim::TimeUs from, sim::TimeUs until);

    /**
     * Degrade @p machine_id's NIC bandwidth to @p bandwidth_factor of
     * nominal (0 < factor <= 1) during [from, until): attempts
     * starting inside the window take 1/factor times longer.
     */
    void injectLinkDegrade(int machine_id, sim::TimeUs from,
                           sim::TimeUs until, double bandwidth_factor);

    /**
     * Begin moving a request's KV-cache from @p src to @p dst.
     *
     * @param prompt_compute Duration of the prompt iteration the
     *     transfer overlapped with.
     */
    void startTransfer(LiveRequest* request, Machine* src, Machine* dst,
                       sim::TimeUs prompt_compute);

    /**
     * TTFT interference a layer-wise transfer inflicts on the prompt
     * iteration (wired into Machine::Callbacks::transferInterference).
     */
    sim::TimeUs interferenceFor(Machine& src, LiveRequest* request,
                                sim::TimeUs prompt_compute);

    /** Retry transfers stalled on @p dst's memory. */
    void onMemoryFreed(Machine* dst);

    const Stats& stats() const { return stats_; }

    /** Attach a trace recorder for transfer spans/instants. */
    void setTrace(telemetry::TraceRecorder* trace) { trace_ = trace; }

    /** Attach a span tracker for transfer/stall/backoff attribution. */
    void setSpans(telemetry::SpanTracker* spans) { spans_ = spans; }

    /** Transfer attempts currently occupying wire time. */
    std::size_t inFlightTransfers() const { return inFlight_; }

    /** Transfers parked waiting for destination KV memory. */
    std::size_t waitingTransfers() const;

  private:
    struct Pending {
        LiveRequest* request = nullptr;
        Machine* src = nullptr;
        sim::TimeUs promptCompute = 0;
        std::uint32_t epoch = 0;
    };

    /** A scheduled NIC fault or degradation window. */
    struct LinkWindow {
        sim::TimeUs from = 0;
        sim::TimeUs until = 0;
        /** Bandwidth multiplier; 0 marks a hard fault window. */
        double factor = 0.0;
    };

    /** One machine's transfer endpoint. */
    struct Port {
        Machine* machine = nullptr;
        /** When the NIC finishes its current transfer. */
        sim::TimeUs nicFreeAt = 0;
        /** Injected fault/degradation windows. */
        std::vector<LinkWindow> linkWindows;
        /** Transfers waiting for this destination's memory, FIFO. */
        std::vector<Pending> waiting;
    };

    /** The port of @p machine_id; std::out_of_range if unknown. */
    Port& port(int machine_id);

    /** Transfer model for a machine pair (cached per spec pair). */
    const model::TransferModel& modelFor(const Machine& src,
                                         const Machine& dst);

    /** Launch attempt @p attempt of a transfer whose destination
     *  memory is reserved. */
    void launch(LiveRequest* request, Machine* src, Machine* dst,
                sim::TimeUs prompt_compute, int attempt = 0);

    /** Slowest degraded-bandwidth factor covering @p at on either
     *  endpoint; 1.0 when undegraded. */
    static double degradeFactorAt(const Port& src, const Port& dst,
                                  sim::TimeUs at);

    /** True when a fault window on either endpoint overlaps
     *  [start, end). */
    static bool linkFaultIn(const Port& src, const Port& dst,
                            sim::TimeUs start, sim::TimeUs end);

    /** A failed attempt: retry after backoff or abort. */
    void handleAttemptFailure(LiveRequest* request, Machine* src,
                              Machine* dst, sim::TimeUs prompt_compute,
                              int attempt);

    /** Give up on the transfer: release both ends, tell the owner. */
    void abortTransfer(LiveRequest* request, Machine* src, Machine* dst);

    sim::Simulator& simulator_;
    model::LlmConfig llm_;
    std::int64_t layerwiseThreshold_;
    double compressionRatio_;
    KvRetryPolicy retry_;
    AbortCallback onAbort_;
    /** Registered endpoints, indexed by machine id. */
    std::vector<Port> ports_;
    /** Cached transfer models keyed by (src spec, dst spec) names. */
    std::map<std::pair<std::string, std::string>, model::TransferModel>
        models_;
    Stats stats_;
    telemetry::TraceRecorder* trace_ = nullptr;
    telemetry::SpanTracker* spans_ = nullptr;
    std::size_t inFlight_ = 0;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_KV_TRANSFER_H_
