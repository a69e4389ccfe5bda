#include "metrics/request_metrics.h"

#include <algorithm>

#include "sim/log.h"

namespace splitwise::metrics {

void
RequestMetrics::setSketchMode(bool on)
{
    if (on == sketch_)
        return;
    if (completed_ != 0)
        sim::fatal("RequestMetrics::setSketchMode after results were added");
    sketch_ = on;
}

void
RequestMetrics::add(const RequestResult& result)
{
    ++completed_;
    if (sketch_) {
        ttftSketch_.add(result.ttftMs);
        if (result.outputTokens > 1)
            tbtSketch_.add(result.tbtMs);
        maxTbtSketch_.add(result.maxTbtMs);
        e2eSketch_.add(result.e2eMs);
    } else {
        results_.push_back(result);
    }
    totalOutput_ += result.outputTokens;
    totalPrompt_ += result.promptTokens;
    firstArrival_ = std::min(firstArrival_, result.arrival);
    const auto completion = result.arrival + sim::msToUs(result.e2eMs);
    lastCompletion_ = std::max(lastCompletion_, completion);
}

RequestMetrics::LatencyStats
RequestMetrics::statsOf(const Summary& summary)
{
    return {summary.count(), summary.mean(), summary.p50(),
            summary.p90(),   summary.p99(),  summary.max()};
}

RequestMetrics::LatencyStats
RequestMetrics::statsOf(const QuantileSketch& sketch)
{
    return {sketch.count(), sketch.mean(), sketch.p50(),
            sketch.p90(),   sketch.p99(),  sketch.max()};
}

RequestMetrics::LatencyStats
RequestMetrics::exactStats(double RequestResult::*field,
                           bool multi_token_only) const
{
    Summary summary;
    for (const RequestResult& r : results_) {
        if (!multi_token_only || r.outputTokens > 1)
            summary.add(r.*field);
    }
    return statsOf(summary);
}

RequestMetrics::LatencyStats
RequestMetrics::ttftStats() const
{
    return sketch_ ? statsOf(ttftSketch_) : exactStats(&RequestResult::ttftMs);
}

RequestMetrics::LatencyStats
RequestMetrics::tbtStats() const
{
    return sketch_ ? statsOf(tbtSketch_)
                   : exactStats(&RequestResult::tbtMs,
                                /*multi_token_only=*/true);
}

RequestMetrics::LatencyStats
RequestMetrics::maxTbtStats() const
{
    return sketch_ ? statsOf(maxTbtSketch_)
                   : exactStats(&RequestResult::maxTbtMs);
}

RequestMetrics::LatencyStats
RequestMetrics::e2eStats() const
{
    return sketch_ ? statsOf(e2eSketch_) : exactStats(&RequestResult::e2eMs);
}

double
RequestMetrics::throughputRps()
 const
{
    if (completed_ == 0 || lastCompletion_ <= firstArrival_)
        return 0.0;
    const double span_s = sim::usToSeconds(lastCompletion_ - firstArrival_);
    return static_cast<double>(completed_) / span_s;
}

double
RequestMetrics::tokenThroughput() const
{
    if (completed_ == 0 || lastCompletion_ <= firstArrival_)
        return 0.0;
    const double span_s = sim::usToSeconds(lastCompletion_ - firstArrival_);
    return static_cast<double>(totalOutput_) / span_s;
}

void
RequestMetrics::merge(const RequestMetrics& other)
{
    if (other.sketch_ != sketch_)
        sim::fatal("RequestMetrics::merge across storage modes");
    if (sketch_) {
        completed_ += other.completed_;
        ttftSketch_.merge(other.ttftSketch_);
        tbtSketch_.merge(other.tbtSketch_);
        maxTbtSketch_.merge(other.maxTbtSketch_);
        e2eSketch_.merge(other.e2eSketch_);
        totalOutput_ += other.totalOutput_;
        totalPrompt_ += other.totalPrompt_;
        firstArrival_ = std::min(firstArrival_, other.firstArrival_);
        lastCompletion_ = std::max(lastCompletion_, other.lastCompletion_);
    } else {
        for (const auto& r : other.results_)
            add(r);
    }
}

}  // namespace splitwise::metrics
