#ifndef SPLITWISE_TELEMETRY_TELEMETRY_H_
#define SPLITWISE_TELEMETRY_TELEMETRY_H_

/**
 * @file
 * Telemetry facade: the per-run configuration plus the recorders it
 * switches on. Instrumented components hold a TraceRecorder and a
 * SpanTracker pointer that stay null unless a run asks for them, so
 * each hook on a hot path costs one pointer test when telemetry is
 * off.
 */

#include "sim/time.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/span_tracker.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_recorder.h"

namespace splitwise::telemetry {

/** Per-run telemetry switches, carried inside core::SimConfig. */
struct TelemetryConfig {
    /** Record request/machine lifecycle spans for Perfetto export. */
    bool traceEnabled = false;
    /**
     * Fixed time-series sampling interval; 0 disables the sampler.
     * Fault epochs additionally trigger on-event samples.
     */
    sim::TimeUs sampleIntervalUs = 0;

    /**
     * Track per-request causal span timelines (SpanTracker): latency
     * breakdown, SLO-breach exemplars, flight recorder. Independent
     * of traceEnabled — span tracking holds O(live requests), not
     * O(events), so it scales to runs where full tracing cannot.
     */
    bool spanTracking = false;

    /** Worst-offender exemplar timelines kept (0 disables). */
    int exemplarK = 3;
};

}  // namespace splitwise::telemetry

#endif  // SPLITWISE_TELEMETRY_TELEMETRY_H_
