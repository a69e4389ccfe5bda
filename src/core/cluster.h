#ifndef SPLITWISE_CORE_CLUSTER_H_
#define SPLITWISE_CORE_CLUSTER_H_

#include <memory>
#include <vector>

#include "core/cls.h"
#include "core/slo.h"
#include "core/designs.h"
#include "engine/kv_transfer.h"
#include "engine/machine.h"
#include "engine/request_pool.h"
#include "metrics/request_metrics.h"
#include "metrics/time_weighted.h"
#include "model/llm_config.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "model/piecewise_perf_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace splitwise::sim {
class Clock;
}  // namespace splitwise::sim

namespace splitwise::core {

class Ingress;
struct SessionRecording;

/**
 * Event-priority classes at equal timestamps. Arrivals are pulled
 * from the trace stream one at a time (each arrival event posts the
 * next), so they can no longer rely on pre-run posting order for
 * their low sequence numbers; the explicit priority reproduces the
 * old ordering: fault-plan events, then arrivals, then everything
 * posted at runtime.
 */
inline constexpr int kFaultEventPriority = -2;
inline constexpr int kArrivalEventPriority = -1;

/** Simulation tunables for a cluster run. */
struct SimConfig {
    engine::MlsConfig mls;
    ClsConfig cls;
    /**
     * Scheduling policy on top of the two-level scheduler: the
     * default runs it unchanged; the prefix policy adds a
     * sched::PrefixCache for session KV-prefix reuse with affinity
     * routing.
     */
    sched::PolicyConfig policy;
    /** Prompt size at which KV transfer switches to layer-wise. */
    std::int64_t layerwiseThresholdTokens = 512;
    /** KV compression ratio applied before transfer (SVII); 1 = raw. */
    double kvCompressionRatio = 1.0;
    /**
     * Checkpoint each request's KV-cache to an in-memory store after
     * its prompt completes (SIV-E). On a machine failure, requests
     * already past their prompt restore the cache from the store
     * (paying a wire transfer) instead of recomputing from scratch.
     */
    bool kvCheckpointing = false;
    /** Fraction of HBM the serving framework may use. */
    double memoryUtilFraction = 0.92;
    /** Timeout/retry/backoff policy for transient KV-transfer faults. */
    engine::KvRetryPolicy kvRetry;
    /**
     * Price iterations with the fitted piecewise-linear model (the
     * paper's SV-B methodology) instead of the analytical model the
     * fit is derived from. The two agree within 3% MAPE.
     */
    bool usePiecewisePerfModel = false;
    /**
     * Hold per-request latency distributions in DDSketch-style
     * quantile sketches (O(buckets) memory) instead of exact
     * per-request records. Percentiles stay within the sketch's
     * relative-error bound; the per-request record vector stays
     * empty. Flip before run() only.
     */
    bool sketchLatencies = false;
    /**
     * Declared bound on simultaneously in-flight request slots;
     * 0 = unbounded. Not enforced by the cluster - the DST
     * invariant checker's live-set-bound invariant fails a run whose
     * live set ever exceeds it, pinning the O(in-flight) memory
     * contract.
     */
    std::size_t maxLiveRequests = 0;
    /**
     * Recycle retired request slots (the normal O(in-flight) mode).
     * Off reproduces the pre-pool O(total-arrivals) live set; the
     * scale bench's naive-baseline mode only.
     */
    bool requestRecycling = true;
    /** Lifecycle tracing and time-series sampling switches. */
    telemetry::TelemetryConfig telemetry;
};

/** Aggregated activity of one machine pool over a run. */
struct PoolReport {
    int machines = 0;
    sim::TimeUs busyUs = 0;
    std::uint64_t iterations = 0;
    double energyWh = 0.0;
    std::int64_t promptTokensProcessed = 0;
    std::int64_t tokensGenerated = 0;
    /** Machine-time powered off by the control plane. */
    sim::TimeUs parkedUs = 0;
    /** Machine-time lost to failures. */
    sim::TimeUs downUs = 0;
    /** Machine-time the deployment paid for (wall minus parked). */
    sim::TimeUs poweredUs = 0;
    /** Idle-floor energy while powered and not iterating, Wh. */
    double idleEnergyWh = 0.0;
    /** Paid machine-hours priced at the pool's spec rate. */
    double costDollars = 0.0;
    /** Time-weighted active-batched-token distribution (Fig. 17). */
    metrics::TimeWeightedHistogram activeTokens;
};

/**
 * What the online control plane did over a run. Only meaningful (and
 * only serialized) when an autoscaler drove the cluster; a disabled
 * report keeps existing outputs byte-identical.
 */
struct ControlReport {
    bool enabled = false;
    /** Controller evaluations (periodic ticks). */
    std::uint64_t ticks = 0;
    /** Machines brought into routing (unparked or un-retired). */
    std::uint64_t scaleUps = 0;
    /** Machines retired from routing toward park. */
    std::uint64_t scaleDowns = 0;
    /** Machines moved between prompt/token roles under surge. */
    std::uint64_t roleFlexes = 0;
    /** Brownout-ladder moves (either direction). */
    std::uint64_t brownoutTransitions = 0;
    int maxBrownoutLevel = 0;
    /** Simulated time spent at brownout level >= 1. */
    sim::TimeUs brownoutUs = 0;
    /** Power-cap assignments issued for the facility budget. */
    std::uint64_t powerCapChanges = 0;
    /** Failures that forced a standby machine back into routing. */
    std::uint64_t emergencyRestores = 0;
    /** Fleet totals the controller trades off against SLOs. */
    double machineHours = 0.0;
    double costDollars = 0.0;
    /** Busy + idle energy across the fleet, Wh. */
    double totalEnergyWh = 0.0;
    /**
     * Fraction of submitted requests finished within every Table VI
     * P99 limit; shed and rejected requests count against it.
     */
    double sloAttainment = 0.0;
};

/**
 * Session prefix-cache activity over a run. Only meaningful (and only
 * serialized) when the prefix policy drove scheduling; a disabled
 * report keeps default-policy outputs byte-identical.
 */
struct PrefixCacheReport {
    bool enabled = false;
    /** Prefix pins taken (cluster-wide, from BlockManager). */
    std::uint64_t hits = 0;
    /** Machine-level acquire failures (entry evicted under the
     *  routed request's feet). */
    std::uint64_t misses = 0;
    /** Refcount-zero prefixes evicted for real traffic. */
    std::uint64_t evictions = 0;
    /** Prefix inserts plus in-place growths. */
    std::uint64_t stores = 0;
    /** Prompt tokens skipped across all hits. */
    std::int64_t hitTokens = 0;
    /** Directory lookups that named no machine (policy-level). */
    std::uint64_t directoryMisses = 0;
    /** Requests routed by session affinity instead of JSQ. */
    std::uint64_t affinityRoutes = 0;
    /** Sessions tracked in the directory at end of run. */
    std::uint64_t directorySize = 0;
};

/** Everything a cluster run produced. */
struct RunReport {
    metrics::RequestMetrics requests;
    std::size_t submitted = 0;
    sim::TimeUs simulatedUs = 0;
    hw::FleetFootprint footprint;
    engine::KvTransferEngine::Stats transfers;
    /** Baseline designs report all machines under promptPool. */
    PoolReport promptPool;
    PoolReport tokenPool;
    std::uint64_t mixedRoutes = 0;
    std::uint64_t poolTransitions = 0;
    std::uint64_t preemptions = 0;
    /** Requests restarted after machine failures (SIV-E). */
    std::uint64_t restarts = 0;
    /** Failure recoveries served from the KV checkpoint store. */
    std::uint64_t checkpointRestores = 0;
    /** Arrivals shed by admission control (counted, not dropped). */
    std::uint64_t rejected = 0;
    /** Failed machines that recovered and rejoined their pool. */
    std::uint64_t rejoins = 0;
    /**
     * Sampled cluster metrics over the run; empty unless
     * SimConfig::telemetry.sampleIntervalUs was set.
     */
    telemetry::TimeSeries timeseries;
    /** Control-plane activity; disabled unless an autoscaler ran. */
    ControlReport control;
    /** Prefix-cache activity; disabled under the default policy. */
    PrefixCacheReport prefixCache;
    /**
     * Critical-path latency attribution; disabled unless
     * SimConfig::telemetry.spanTracking was set.
     */
    telemetry::LatencyBreakdown breakdown;

    /** Completed-request throughput over the run. */
    double
    throughputRps() const
    {
        return requests.throughputRps();
    }
};

/**
 * A simulated LLM inference cluster: machines, transfer engine, and
 * the cluster-level scheduler, assembled from a ClusterDesign.
 *
 * One-shot: construct, run() a trace once, read the report.
 */
class Cluster {
  public:
    Cluster(model::LlmConfig llm, ClusterDesign design, SimConfig config = {});

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /**
     * Run the simulation to completion over a pull-based trace
     * stream and report. Arrivals are pulled one at a time (each
     * arrival event posts the next), so the full request vector is
     * never materialized and retired request slots recycle as
     * requests complete. Requests that can never finish trip a
     * fatal error.
     */
    RunReport run(workload::TraceStream& stream);

    /**
     * Materialized-trace convenience wrapper: adapts @p trace
     * through a VectorTraceStream and runs the streaming path, so
     * both entry points produce byte-identical reports.
     */
    RunReport run(const workload::Trace& trace);

    /**
     * Serve live traffic from a thread-safe Ingress until it is shut
     * down and drained, paced by @p clock (SimClock = full speed,
     * WallClock = real time), and report exactly as run() does.
     *
     * The event engine stays single-threaded: client operations park
     * in the ingress mailbox and are drained only at quiescent
     * points — after every event sharing a timestamp has fired —
     * then stamped with a strictly increasing simulated time and
     * posted at arrival priority. Because the stamps are unique and
     * the whole timestamp batch fires before the next drain, the
     * run's total event order is a function of the stamped operation
     * list alone; @p capture (when non-null) records that list as a
     * SessionRecording, which core::replay() re-runs bit-exact
     * through the offline streaming path.
     *
     * One-shot, like run(). Mutually exclusive with run().
     */
    RunReport serve(Ingress& ingress, sim::Clock& clock,
                    SessionRecording* capture = nullptr);

    /**
     * Schedule a cancellation of request @p request_id at simulated
     * time @p at (replay of a captured live session). The request's
     * token budget is clamped so it finishes at its next token
     * boundary — the same brownout-style clamp the live cancel path
     * applies. Unknown or already-finished ids no-op. Call before
     * run().
     */
    void scheduleCancel(std::uint64_t request_id, sim::TimeUs at);

    /**
     * Schedule a permanent machine failure at simulated time @p at
     * (SIV-E). The machine drops out of every pool; requests queued,
     * running, transferring, or decoding on it restart from scratch
     * on the surviving machines. Call before run().
     */
    void scheduleFailure(int machine_id, sim::TimeUs at);

    /**
     * Schedule a transient crash: the machine fails at @p at and
     * rejoins its pool (empty, with fresh scheduler state) after
     * @p downtime_us. Call before run().
     */
    void scheduleFailure(int machine_id, sim::TimeUs at,
                         sim::TimeUs downtime_us);

    /**
     * Schedule a straggler window: the machine's iterations run
     * @p factor times slower (factor > 1) during
     * [at, at + duration_us). The CLS routes around it as its queues
     * grow. Call before run().
     */
    void scheduleSlowdown(int machine_id, sim::TimeUs at,
                          sim::TimeUs duration_us, double factor);

    /**
     * Schedule a NIC fault window on a machine: KV transfers
     * touching it during [at, at + duration_us) fail and are retried
     * per SimConfig::kvRetry. Call before run().
     */
    void scheduleLinkFault(int machine_id, sim::TimeUs at,
                           sim::TimeUs duration_us);

    /**
     * Schedule a NIC degradation window: transfers touching the
     * machine during [at, at + duration_us) run at
     * @p bandwidth_factor of nominal speed. Call before run().
     */
    void scheduleLinkDegrade(int machine_id, sim::TimeUs at,
                             sim::TimeUs duration_us,
                             double bandwidth_factor);

    const ClusterDesign& design() const { return design_; }
    const model::LlmConfig& llm() const { return llm_; }
    sim::Simulator& simulator() { return simulator_; }
    const sim::Simulator& simulator() const { return simulator_; }
    ClusterScheduler& scheduler() { return *cls_; }
    engine::KvTransferEngine& transferEngine() { return engine_; }

    /**
     * Lifecycle trace of the last run; nullptr unless
     * SimConfig::telemetry.traceEnabled was set.
     */
    telemetry::TraceRecorder* traceRecorder() { return trace_.get(); }

    /**
     * Per-request span timelines of the last run; nullptr unless
     * SimConfig::telemetry.spanTracking was set (and the build has
     * telemetry compiled in).
     */
    telemetry::SpanTracker* spanTracker() { return spans_.get(); }
    const telemetry::SpanTracker* spanTracker() const { return spans_.get(); }

    /** The run's counter/gauge registry (always populated). */
    telemetry::MetricsRegistry& metrics() { return registry_; }
    const telemetry::MetricsRegistry& metrics() const { return registry_; }

    /** All machines (prompt pool first, then token pool). */
    const std::vector<std::unique_ptr<engine::Machine>>&
    machines() const
    {
        return machines_;
    }

    /**
     * Pooled live-request storage: one recycled slot per in-flight
     * request. The DST invariant checker and the control plane walk
     * the live slots (forEachLive) to assert cross-layer
     * conservation laws mid-run; retired requests are released at
     * completion, so the walk is O(in-flight).
     */
    const engine::RequestPool& requestPool() const { return pool_; }

    /** The simulation tunables this cluster was built with. */
    const SimConfig& config() const { return config_; }

    /** Completed-request records accumulated so far. */
    const metrics::RequestMetrics& results() const { return results_; }

    /**
     * Failures that emptied routing entirely while the controller
     * held machines in standby, forcing one straight back in.
     */
    std::uint64_t emergencyRestores() const { return emergencyRestores_; }

  private:
    engine::Machine* machineById(int id);

    /**
     * Pull the next request from the active stream and post its
     * arrival event (which admits it and pulls the one after).
     */
    void postNextArrival();

    /** Acquire a slot for @p spec and route it through admission. */
    void admitArrival(const workload::Request& spec);

    /** One-shot guard shared by run() and serve(). */
    void beginRun();

    /** Start periodic time-series sampling when configured. */
    void installSampler();

    /**
     * Post-run balance check plus report assembly; the tail shared
     * by run() and serve().
     */
    RunReport buildReport();

    /**
     * Clamp @p request_id's token budget so it finishes at the next
     * token boundary (live cancel / replayed cancel event body).
     */
    void cancelRequest(std::uint64_t request_id);

    /** Register counters/gauges and attach the trace recorder. */
    void setupTelemetry();

    /** Common validation for the fault-scheduling entry points. */
    void checkFaultSchedulable(int machine_id) const;

    /** Take the machine down and restart its in-flight requests. */
    void failMachine(int machine_id);

    /** Bring a failed machine back and re-admit it to routing. */
    void recoverMachine(int machine_id);

    /** KV-transfer retry budget exhausted: restart from scratch. */
    void onTransferAbort(engine::LiveRequest* request);

    /**
     * Worst per-metric Table VI slowdown of one completed request
     * (max of TTFT, TBT, and E2E against the DGX-A100 reference) —
     * the exemplar-ranking key. Requires sloRef_.
     */
    double worstSlowdown(const metrics::RequestResult& result) const;

    /**
     * Recover a decode-phase request from the KV checkpoint store
     * onto a healthy machine.
     *
     * @return false when no machine can host it (caller falls back
     *     to a from-scratch restart).
     */
    bool restoreFromCheckpoint(engine::LiveRequest* request);

    model::LlmConfig llm_;
    ClusterDesign design_;
    SimConfig config_;
    sim::Simulator simulator_;

    /** Perf/memory models per distinct machine spec. */
    std::vector<std::unique_ptr<model::PerfModel>> perfModels_;
    std::vector<std::unique_ptr<model::MemoryModel>> memoryModels_;

    std::vector<std::unique_ptr<engine::Machine>> machines_;
    engine::KvTransferEngine engine_;
    std::unique_ptr<ClusterScheduler> cls_;
    /** The session prefix cache; null unless SimConfig::policy
     *  selects PolicyKind::kPrefixCache. */
    std::unique_ptr<sched::PrefixCache> prefixCache_;

    engine::RequestPool pool_;
    /** The stream feeding the current run(); null outside run(). */
    workload::TraceStream* stream_ = nullptr;
    /** Arrivals pulled from the stream (admitted or rejected). */
    std::size_t submitted_ = 0;
    metrics::RequestMetrics results_;

    /**
     * Fault/recovery counters live in the registry so the sampler
     * and the report read the same cells (single source of truth).
     */
    telemetry::MetricsRegistry registry_;
    telemetry::Counter* restarts_ = nullptr;
    telemetry::Counter* checkpointRestores_ = nullptr;
    telemetry::Counter* rejected_ = nullptr;
    std::unique_ptr<telemetry::TraceRecorder> trace_;
    std::unique_ptr<telemetry::SpanTracker> spans_;
    /** Slowdown reference for exemplar ranking; set iff spans_ is. */
    std::unique_ptr<SloChecker> sloRef_;
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler_;
    std::uint64_t emergencyRestores_ = 0;
    bool ran_ = false;

    /**
     * Live-serving hooks, installed by serve() only: request
     * completion and admission-rejection notifications for the
     * ingress boundary. Null on every offline path, so run() stays
     * byte-identical to pre-serve builds.
     */
    std::function<void(engine::LiveRequest*)> liveDone_;
    std::function<void(engine::LiveRequest*)> liveRejected_;
};

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_CLUSTER_H_
