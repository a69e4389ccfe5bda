#ifndef SPLITWISE_ENGINE_MACHINE_H_
#define SPLITWISE_ENGINE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/mls.h"
#include "engine/request.h"
#include "hw/machine_spec.h"
#include "metrics/time_weighted.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "model/power_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace splitwise::engine {

/** Aggregate activity counters for one machine. */
struct MachineStats {
    sim::TimeUs busyUs = 0;
    std::uint64_t iterations = 0;
    std::uint64_t promptIterations = 0;
    std::uint64_t tokenIterations = 0;
    std::uint64_t mixedIterations = 0;
    std::int64_t promptTokensProcessed = 0;
    std::int64_t tokensGenerated = 0;
    /** GPU + platform energy while iterating, Wh. */
    double energyWh = 0.0;
    /** Time spent parked (powered off by the control plane). */
    sim::TimeUs parkedUs = 0;
    /** Time spent failed (crashed, drawing nothing). */
    sim::TimeUs downUs = 0;
    /** Powered wall-clock (run length minus parked time); the
     *  machine-hours the deployment pays for. Set by finalizeStats. */
    sim::TimeUs poweredUs = 0;
    /** Idle-floor energy while powered, up, and not iterating, Wh.
     *  Kept separate from energyWh (busy iterations only) so the
     *  paper-anchored energy numbers are unchanged. */
    double idleEnergyWh = 0.0;
    /** Active-batched-token signal over time (Figs. 4/17). */
    metrics::SignalTracker activeTokens;
};

/**
 * A simulated DGX inference machine.
 *
 * Wires the MLS batching logic into the event loop: at every
 * iteration boundary it asks the MLS for the next batch, prices it
 * with the performance model, and schedules the completion event.
 * Completions route requests onward - locally into the resident
 * decode set, or to the owner via callbacks for KV transfer.
 */
class Machine {
  public:
    /** Hooks the owning cluster installs. */
    struct Callbacks {
        /**
         * A prompt finished for a request whose decode runs
         * elsewhere. The machine keeps the request's KV blocks until
         * releaseKv(); the owner starts the transfer.
         * @param prompt_compute Duration of the completed iteration
         *     (the window a layer-wise transfer overlapped with).
         */
        std::function<void(Machine&, LiveRequest*, sim::TimeUs prompt_compute)>
            onPromptDone;

        /** A request produced its final token on this machine. */
        std::function<void(Machine&, LiveRequest*)> onRequestDone;

        /**
         * The full prompt has been computed (before the request is
         * routed onward to decode). The scheduling policy uses this
         * to publish the session's KV prefix for reuse. Optional.
         */
        std::function<void(Machine&, LiveRequest*)> onPrefillComplete;

        /**
         * Extra iteration time caused by overlapped KV-transfer
         * synchronization for an outbound prompt (SIV-C). Optional.
         */
        std::function<sim::TimeUs(Machine&, LiveRequest*,
                                  sim::TimeUs prompt_compute)>
            transferInterference;

        /** KV blocks were freed (transfer engine retries waiters). */
        std::function<void(Machine&)> onMemoryFreed;

        /** An iteration ended (CLS pool-management hook). Optional. */
        std::function<void(Machine&)> onIterationEnd;
    };

    Machine(sim::Simulator& simulator, int id, hw::MachineSpec spec,
            const model::PerfModel& perf, const model::MemoryModel& memory,
            MlsConfig mls_config, Callbacks callbacks);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    int id() const { return id_; }
    const hw::MachineSpec& spec() const { return spec_; }

    /** Submit a request for prompt computation (FCFS). */
    void submitPrompt(LiveRequest* request);

    /**
     * Reserve KV blocks for an inbound transfer.
     *
     * @return false when memory is currently insufficient.
     */
    bool reserveKv(LiveRequest* request, std::int64_t tokens);

    /** Release a request's KV blocks (e.g. after transfer-out). */
    void releaseKv(LiveRequest* request);

    /** A transferred-in request becomes a resident decode. */
    void acceptTransferred(LiveRequest* request);

    /** Start an iteration if idle and work is pending. */
    void kick();

    /**
     * Take the machine down (SIV-E). All queued/resident work and KV
     * allocations are dropped, and every later event touching the
     * machine becomes a no-op. The owner restarts affected requests.
     */
    void fail();

    /**
     * Bring a failed machine back up after its downtime, empty of
     * state: no queued prompts, no residents, no KV. The owner must
     * re-admit it to routing (CLS rejoin).
     */
    void recover();

    /** True while the machine is down. */
    bool failed() const { return failed_; }

    /**
     * Power the machine off (autoscaler scale-down). Only legal once
     * the machine is fully drained - no in-flight iteration, no
     * queued or resident work, no KV allocations. A parked machine
     * draws no power, accrues no machine-hours, and accepts no work
     * until unpark().
     */
    void park();

    /**
     * Power a parked machine back on (autoscaler scale-up, after the
     * provisioning lead time). The machine comes back empty and the
     * owner must re-admit it to routing (CLS restore).
     */
    void unpark();

    /** True while powered off by the control plane. */
    bool parked() const { return parked_; }

    /**
     * Apply a per-GPU power cap as a fraction of TDP (Fig. 9).
     * Iterations whose phase needs more than the cap run slower by
     * the model's cap-latency multiplier; caps above the phase's
     * natural draw cost nothing. 1.0 removes the cap.
     */
    void setPowerCap(double fraction);

    /** The current power-cap fraction (1.0 = uncapped). */
    double powerCap() const { return powerCap_; }

    /**
     * Straggler injection: multiply every iteration's duration by
     * @p scale (> 1 = slower). Routing signals are untouched, so the
     * CLS only sees the straggler through its growing queues.
     */
    void setPerfScale(double scale);

    /** Current iteration-duration multiplier. */
    double perfScale() const { return perfScale_; }

    /** The machine-level scheduler. */
    Mls& mls() { return mls_; }
    const Mls& mls() const { return mls_; }

    /** True while an iteration is in flight. */
    bool busy() const { return busy_; }

    /** JSQ signal: queued prompt tokens plus the running chunk. */
    std::int64_t promptQueueDepthTokens() const;

    /** JSQ signal: KV tokens held or reserved on this machine. */
    std::int64_t tokenLoadTokens() const;

    /**
     * Largest decode batch whose iteration stays within @p tbt_ms
     * (at ~1200 tokens of context per sequence). The CLS uses this
     * as the machine's latency-efficient capacity when deciding
     * token-pool overflow. Cached per bound.
     */
    int maxBatchWithinTbt(double tbt_ms) const;

    /** Activity counters; call finalizeStats() before reading. */
    const MachineStats& stats() const { return stats_; }

    /** Close the active-token signal at the end of a run. */
    void finalizeStats();

    /**
     * Attach a trace recorder: iteration spans on the machine track
     * and phase transitions on request tracks. nullptr detaches.
     */
    void setTrace(telemetry::TraceRecorder* trace) { trace_ = trace; }

    /**
     * Attach a span tracker: queue/prefill/decode attribution phases
     * for every request this machine touches, including preemption
     * re-queues. nullptr detaches.
     */
    void setSpans(telemetry::SpanTracker* spans) { spans_ = spans; }

    /**
     * Attach a per-token hook, fired after every recordToken() —
     * each decode token and the prompt-completion (first) token.
     * Live serving streams TokenUpdates through it; offline runs
     * leave it unset, keeping the hot path at one null check.
     * nullptr detaches.
     */
    void
    setOnToken(std::function<void(LiveRequest*)> on_token)
    {
        onToken_ = std::move(on_token);
    }

    /**
     * Modeled machine power draw right now: the in-flight
     * iteration's draw while busy, the platform/idle floor
     * otherwise. Telemetry gauge for the paper's power figures.
     */
    double currentPowerWatts() const;

  private:
    void startIteration();
    void completeIteration(const BatchPlan& plan, sim::TimeUs duration);

    /**
     * The scheduled iteration-completion event: drops silently when
     * @p epoch is stale (the machine failed since the iteration
     * started), otherwise completes the in-flight plan_.
     */
    void onIterationEvent(std::uint64_t epoch);

    /** Route a request whose prompt chunk just completed. */
    void routePromptCompletion(LiveRequest* request,
                               sim::TimeUs prompt_compute);

    sim::Simulator& simulator_;
    int id_;
    hw::MachineSpec spec_;
    const model::PerfModel& perf_;
    model::PowerModel power_;
    Mls mls_;
    Callbacks callbacks_;
    /** Live-serving per-token hook; unset (and free) offline. */
    std::function<void(LiveRequest*)> onToken_;

    bool busy_ = false;
    bool failed_ = false;
    bool parked_ = false;
    sim::TimeUs parkedSince_ = 0;
    sim::TimeUs downSince_ = 0;
    /** Per-GPU power cap as a fraction of TDP; 1.0 = uncapped. */
    double powerCap_ = 1.0;
    /**
     * Bumped on every fail(); an in-flight iteration-completion event
     * captured under an older epoch must drop silently, even when the
     * machine has recovered by the time it fires.
     */
    std::uint64_t epoch_ = 0;
    double perfScale_ = 1.0;
    std::int64_t runningPromptTokens_ = 0;
    /**
     * The in-flight iteration's batch and duration. Only one
     * iteration runs at a time (busy_), so the completion event reads
     * these instead of capturing a copy of the plan - the vectors'
     * capacity is reused every iteration, keeping the hot path
     * allocation-free.
     */
    BatchPlan plan_;
    sim::TimeUs planDuration_ = 0;
    /** Draw of the in-flight iteration; idle floor while not busy. */
    double currentWatts_ = 0.0;
    telemetry::TraceRecorder* trace_ = nullptr;
    telemetry::SpanTracker* spans_ = nullptr;
    MachineStats stats_;
    mutable double cachedTbtBoundMs_ = -1.0;
    mutable int cachedMaxBatch_ = 0;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_MACHINE_H_
