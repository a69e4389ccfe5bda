#ifndef SPLITWISE_METRICS_REQUEST_METRICS_H_
#define SPLITWISE_METRICS_REQUEST_METRICS_H_

#include <cstdint>
#include <vector>

#include "metrics/quantile_sketch.h"
#include "metrics/summary.h"
#include "sim/time.h"

namespace splitwise::metrics {

/**
 * Final per-request measurements, in the units the paper reports.
 *
 * TTFT: queueing + prompt computation until the first token.
 * TBT:  mean time between subsequent tokens (reported per request as
 *       the paper's "average token streaming latency").
 * E2E:  arrival to last token.
 */
struct RequestResult {
    std::uint64_t requestId = 0;
    sim::TimeUs arrival = 0;
    std::int64_t promptTokens = 0;
    std::int64_t outputTokens = 0;
    double ttftMs = 0.0;
    double tbtMs = 0.0;
    /** Largest single inter-token gap, ms (tail-TBT; Fig. 2 effect). */
    double maxTbtMs = 0.0;
    double e2eMs = 0.0;
    /** Visible latency of the second token, ms (KV transfer impact). */
    double secondTokenMs = 0.0;
    /** Number of times the request's token phase was preempted. */
    int preemptions = 0;
};

/**
 * Aggregates per-request results into the latency summaries the
 * paper's SLOs and plots are defined over.
 *
 * Two storage modes:
 *  - exact (default): every RequestResult is retained, and that
 *    record is each latency sample's only copy; the *Stats() views
 *    build the four distributions from results() on demand —
 *    O(requests) memory, required by anything that walks results()
 *    (per-request SLO evaluation, the SloMonitor window cursor).
 *  - sketch (setSketchMode(true)): per-request results are folded
 *    into QuantileSketch instances and dropped — O(buckets) memory,
 *    for 10^6+-request runs. results() stays empty and percentiles
 *    carry the sketch's relative-error bound.
 */
class RequestMetrics {
  public:
    /**
     * Backend-independent view of one latency distribution — the
     * fields reportToJson emits. Exact mode fills it from a Summary
     * of the records, sketch mode from QuantileSketch.
     */
    struct LatencyStats {
        std::size_t count = 0;
        double mean = 0.0;
        double p50 = 0.0;
        double p90 = 0.0;
        double p99 = 0.0;
        double max = 0.0;
    };

    /**
     * Switch to bounded-memory sketch storage. Must be called before
     * the first add() (fatal otherwise — the two backends cannot be
     * reconciled retroactively).
     */
    void setSketchMode(bool on);

    /** True when latencies are held in sketches, not exact samples. */
    bool sketchMode() const { return sketch_; }

    /** Record one finished request. */
    void add(const RequestResult& result);

    /**
     * All recorded per-request results, in completion order.
     * Always empty in sketch mode — that is the memory saving.
     */
    const std::vector<RequestResult>& results() const { return results_; }

    /** Number of completed requests (tracked in both modes). */
    std::size_t completed() const { return completed_; }

    /** TTFT stats from whichever backend is active. */
    LatencyStats ttftStats() const;

    /** Mean-TBT stats (ms); single-token requests have no TBT. */
    LatencyStats tbtStats() const;

    /** Max-TBT stats from whichever backend is active. */
    LatencyStats maxTbtStats() const;

    /** E2E stats from whichever backend is active. */
    LatencyStats e2eStats() const;

    /** Total generated tokens across completed requests. */
    std::int64_t totalOutputTokens() const { return totalOutput_; }

    /** Total prompt tokens across completed requests. */
    std::int64_t totalPromptTokens() const { return totalPrompt_; }

    /**
     * Completed-request throughput in requests/s over the span from
     * the first arrival to the last completion.
     */
    double throughputRps() const;

    /** Generated-token throughput over the same span (tokens/s). */
    double tokenThroughput() const;

    /**
     * Merge another collector's results into this one. Storage modes
     * must match (fatal otherwise). Sketch-mode merges add bucket
     * counts, so the result is independent of merge order.
     */
    void merge(const RequestMetrics& other);

  private:
    static LatencyStats statsOf(const Summary& summary);
    static LatencyStats statsOf(const QuantileSketch& sketch);

    /** Exact stats of one latency field over results_, optionally
     *  only over requests with more than one output token. */
    LatencyStats exactStats(double RequestResult::*field,
                            bool multi_token_only = false) const;

    bool sketch_ = false;
    std::size_t completed_ = 0;
    std::vector<RequestResult> results_;
    QuantileSketch ttftSketch_;
    QuantileSketch tbtSketch_;
    QuantileSketch maxTbtSketch_;
    QuantileSketch e2eSketch_;
    std::int64_t totalOutput_ = 0;
    std::int64_t totalPrompt_ = 0;
    sim::TimeUs firstArrival_ = sim::kTimeNever;
    sim::TimeUs lastCompletion_ = 0;
};

}  // namespace splitwise::metrics

#endif  // SPLITWISE_METRICS_REQUEST_METRICS_H_
