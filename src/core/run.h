#ifndef SPLITWISE_CORE_RUN_H_
#define SPLITWISE_CORE_RUN_H_

/**
 * @file
 * The consolidated cluster-run entry point.
 *
 * Cluster::run, the bench runCluster/runClusterMany helpers, and the
 * telemetry-output overloads accreted into parallel surfaces that
 * each threaded a different subset of (design, workload, faults,
 * telemetry, jobs) by hand. RunOptions names the whole input of a
 * run; run()/runMany() are the one way to execute it (the deprecated
 * bench shims are gone). runLive() serves the same cluster from a
 * thread-safe Ingress under an abstract clock, and replay() re-runs
 * a captured live session bit-exact through the offline path.
 *
 * Layering note: ISSUE 5 sketches this as `sim::RunOptions`, but the
 * run input spans core-layer types (ClusterDesign, FaultPlan,
 * SimConfig) that the sim layer must not depend on, so it lives in
 * core.
 */

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/fault_plan.h"
#include "core/ingress.h"
#include "core/recording.h"
#include "model/llm_config.h"
#include "workload/trace.h"
#include "workload/trace_stream.h"

namespace splitwise::core {

/** Telemetry file destinations for a run; empty path = disabled. */
struct RunSinks {
    /** Perfetto/Chrome trace JSON (implies trace recording). */
    std::string tracePath;
    /** Sampled cluster metrics CSV (implies time-series sampling). */
    std::string timeseriesPath;
    /**
     * Latency-attribution JSON: per-phase breakdown plus SLO-offender
     * exemplar timelines (implies span tracking).
     */
    std::string breakdownPath;

    bool any() const
    {
        return !tracePath.empty() || !timeseriesPath.empty() ||
               !breakdownPath.empty();
    }
};

/**
 * The complete input of a cluster run: model, cluster design,
 * workload trace(s), simulation tunables, fault plan, telemetry
 * sinks, and parallelism. One cluster is built and run per trace.
 */
struct RunOptions {
    model::LlmConfig llm;
    ClusterDesign design;
    /** One cluster run per trace, reported in trace order. */
    std::vector<workload::Trace> traces;
    SimConfig sim;
    /** Faults scheduled into every run (validated against design). */
    FaultPlan faults;
    /**
     * File sinks, applied per run; with several traces the paths are
     * suffixed with the trace index before the extension
     * (trace.json, trace.1.json, ...). Setting a sink switches the
     * matching telemetry collection on.
     */
    RunSinks sinks;
    /**
     * Worker count for multi-trace runs: 0 = hardware default,
     * 1 = the exact serial path. Reports and artifacts are identical
     * at every job count.
     */
    int jobs = 1;
};

/**
 * Run a single-trace RunOptions to completion.
 *
 * @pre options.traces.size() == 1 (fatal otherwise).
 */
RunReport run(const RunOptions& options);

/**
 * Run every trace in @p options concurrently (`jobs` workers) and
 * return the reports in trace order. Each run owns its cluster and
 * telemetry sinks.
 */
std::vector<RunReport> runMany(const RunOptions& options);

/**
 * Run a single cluster fed from a pull-based trace stream instead of
 * a materialized Trace: arrivals are drawn one at a time, so the
 * run's memory stays O(in-flight requests) regardless of how many
 * requests the stream produces. Produces a report byte-identical to
 * run() over the drained equivalent of the same stream.
 *
 * @pre options.traces is empty (fatal otherwise): the stream is the
 *      workload.
 */
RunReport runStream(const RunOptions& options, workload::TraceStream& stream);

/**
 * Serve live traffic: build one cluster from @p options and run its
 * serve loop against @p ingress under @p clock until
 * Ingress::shutdown() drains it. With a SimClock the loop runs at
 * full simulation speed; with a WallClock it sleeps until the next
 * event, preempted by new arrivals. When @p capture is non-null the
 * stamped arrival/cancel records are appended to it for a later
 * bit-exact replay().
 *
 * @pre options.traces is empty (fatal otherwise): the ingress is the
 *      workload.
 */
RunReport runLive(const RunOptions& options, Ingress& ingress,
                  sim::Clock& clock, SessionRecording* capture = nullptr);

/**
 * Re-run a captured live session through the ordinary streaming
 * path: cancels are pre-posted at their recorded times, arrivals
 * replay in stamp order. Produces a RunReport identical to the live
 * run that produced @p recording.
 */
RunReport replay(const RunOptions& options, const SessionRecording& recording);

/**
 * Switch on in @p config the telemetry collection each set path of
 * @p sinks needs: a trace path enables the trace recorder, a
 * time-series path the sampler (at 1000 ms unless an interval is
 * already set), a breakdown path span tracking. run(), runMany(),
 * runStream(), runLive() and replay() apply it themselves; callers
 * that build their own Cluster apply it before writeSinks().
 */
void enableSinks(SimConfig& config, const RunSinks& sinks);

/**
 * Write @p sinks for one finished run of @p cluster under run index
 * @p index (paths suffixed via indexedSinkPath) and print a `wrote ...`
 * line per file. A sink whose collection was off in the cluster's
 * config writes nothing. Safe to call from RunPool workers: distinct
 * indices write distinct files.
 */
void writeSinks(Cluster& cluster, const RunReport& report,
                const RunSinks& sinks, int index);

/** "out.json" with run index 2 becomes "out.2.json"; index 0 is unchanged. */
std::string indexedSinkPath(const std::string& path, int index);

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_RUN_H_
