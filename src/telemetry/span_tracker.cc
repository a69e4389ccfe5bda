#include "telemetry/span_tracker.h"

#include <algorithm>
#include <cstdio>

#include "sim/log.h"

namespace splitwise::telemetry {

namespace {

double
usToMsF(sim::TimeUs us)
{
    return static_cast<double>(us) / 1000.0;
}

void
appendNum(std::string& out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

}  // namespace

const char*
spanPhaseName(SpanPhase phase)
{
    switch (phase) {
      case SpanPhase::kQueue: return "queue";
      case SpanPhase::kBrownoutStall: return "brownout_stall";
      case SpanPhase::kPrefill: return "prefill";
      case SpanPhase::kKvStall: return "kv_stall";
      case SpanPhase::kKvTransfer: return "kv_transfer";
      case SpanPhase::kKvBackoff: return "kv_backoff";
      case SpanPhase::kDecode: return "decode";
      case SpanPhase::kRestartPenalty: return "restart_penalty";
      case SpanPhase::kPrefixHit: return "prefix_hit";
    }
    return "?";
}

SpanTracker::SpanTracker(SpanTrackerConfig config) : config_(config)
{
    if (config_.exemplarK > 0)
        exemplars_.reserve(static_cast<std::size_t>(config_.exemplarK) + 1);
}

void
SpanTracker::setBrownoutLevel(int level)
{
    brownoutLevel_ = level;
}

void
SpanTracker::transition(RequestSpans& spans, SpanPhase phase,
                        sim::TimeUs now)
{
    // Degraded-mode queueing is its own phase so brownout penalties
    // don't masquerade as ordinary queue wait.
    if (phase == SpanPhase::kQueue && brownoutLevel_ > 0)
        phase = SpanPhase::kBrownoutStall;

    auto& segments = spans.segments;
    if (segments.empty()) {
        // First sight: transition and restart always leave a segment.
        spans.arrivalUs = now;
        spans.incarnationStartUs = now;
        spans.incarnationStart = 0;
        spans.restarts = 0;
        ++open_;
    } else if (segments.back().endUs == kSpanOpen) {
        if (segments.back().phase == phase)
            return;  // already in this phase
        segments.back().endUs = now;
    }
    segments.push_back({phase, now, kSpanOpen});
}

void
SpanTracker::restart(RequestSpans& spans, sim::TimeUs now)
{
    if (!spans.open())
        sim::panic("SpanTracker::restart for untracked request");
    auto& segments = spans.segments;
    if (segments.back().endUs == kSpanOpen)
        segments.back().endUs = now;
    // Everything since the last (re)start was lost work; collapse it
    // into one restart_penalty segment. Back-to-back crashes extend
    // the previous penalty instead of stacking zero-glued segments.
    segments.resize(spans.incarnationStart);
    if (!segments.empty() &&
        segments.back().phase == SpanPhase::kRestartPenalty &&
        segments.back().endUs == spans.incarnationStartUs) {
        segments.back().endUs = now;
    } else {
        segments.push_back({SpanPhase::kRestartPenalty,
                            spans.incarnationStartUs, now});
    }
    spans.incarnationStart = static_cast<std::uint32_t>(segments.size());
    spans.incarnationStartUs = now;
    ++spans.restarts;
}

void
SpanTracker::complete(RequestSpans& spans, std::uint64_t request_id,
                      sim::TimeUs now, double slowdown)
{
    if (!spans.open())
        sim::panic("SpanTracker::complete for untracked request");
    if (spans.segments.back().endUs == kSpanOpen)
        spans.segments.back().endUs = now;

    double perPhaseMs[kSpanPhaseCount] = {};
    bool touched[kSpanPhaseCount] = {};
    double attributedMs = 0.0;
    for (const auto& seg : spans.segments) {
        const double ms = usToMsF(seg.endUs - seg.startUs);
        const int p = static_cast<int>(seg.phase);
        perPhaseMs[p] += ms;
        touched[p] = true;
        attributedMs += ms;
    }
    for (int p = 0; p < kSpanPhaseCount; ++p) {
        if (!touched[p])
            continue;
        phaseMs_[p].add(perPhaseMs[p]);
        phaseTotalMs_[p] += perPhaseMs[p];
    }
    e2eTotalMs_ += usToMsF(now - spans.arrivalUs);
    attributedTotalMs_ += attributedMs;
    ++completed_;

    if (config_.exemplarK > 0) {
        const auto k = static_cast<std::size_t>(config_.exemplarK);
        if (exemplars_.size() < k ||
            slowdown > exemplars_.back().slowdown) {
            // Insert sorted worst-first; ties keep completion order.
            auto pos = std::find_if(
                exemplars_.begin(), exemplars_.end(),
                [&](const SpanExemplar& e) { return e.slowdown < slowdown; });
            exemplars_.insert(pos, {slowdown,
                                    {request_id, spans.arrivalUs, now,
                                     spans.restarts, spans.segments}});
            if (exemplars_.size() > k)
                exemplars_.pop_back();
        }
    }

    if (ring_.size() < kFlightRecorderCapacity)
        ring_.emplace_back();
    // Assigning over an evicted entry reuses its segment storage.
    SpanTimeline& recent = ring_[ringNext_];
    recent.requestId = request_id;
    recent.arrivalUs = spans.arrivalUs;
    recent.doneUs = now;
    recent.restarts = spans.restarts;
    recent.segments = spans.segments;
    ringNext_ = (ringNext_ + 1) % kFlightRecorderCapacity;

    spans.segments.clear();  // capacity retained for the row's reuse
    --open_;
}

const char*
SpanTracker::timelineDefect(const RequestSpans& spans)
{
    const auto& segments = spans.segments;
    if (segments.empty())
        return "timeline has no segments";
    if (segments.front().startUs != spans.arrivalUs)
        return "first segment does not start at arrival";
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const auto& seg = segments[i];
        const bool last = i + 1 == segments.size();
        if (!last && seg.endUs == kSpanOpen)
            return "open segment is not the last";
        if (last && seg.endUs != kSpanOpen)
            return "live timeline has no open segment";
        if (seg.endUs != kSpanOpen && seg.endUs < seg.startUs)
            return "segment ends before it starts";
        if (!last && segments[i + 1].startUs != seg.endUs)
            return "gap between segments";
    }
    return nullptr;
}

LatencyBreakdown
SpanTracker::breakdown() const
{
    LatencyBreakdown out;
    out.enabled = true;
    out.requests = completed_;
    out.e2eTotalMs = e2eTotalMs_;
    out.attributedTotalMs = attributedTotalMs_;
    out.phases.reserve(kSpanPhaseCount);
    for (int p = 0; p < kSpanPhaseCount; ++p) {
        PhaseStat stat;
        stat.phase = static_cast<SpanPhase>(p);
        stat.requests = phaseMs_[p].count();
        stat.totalMs = phaseTotalMs_[p];
        stat.meanMs = phaseMs_[p].mean();
        stat.p50Ms = phaseMs_[p].p50();
        stat.p99Ms = phaseMs_[p].p99();
        stat.maxMs = phaseMs_[p].max();
        out.phases.push_back(stat);
    }
    return out;
}

void
SpanTracker::appendTimelineJson(std::string& out,
                                const SpanTimeline& timeline)
{
    out += "{\"request\":";
    out += std::to_string(timeline.requestId);
    out += ",\"arrival_us\":";
    out += std::to_string(timeline.arrivalUs);
    out += ",\"done_us\":";
    out += std::to_string(timeline.doneUs);
    out += ",\"restarts\":";
    out += std::to_string(timeline.restarts);
    out += ",\"spans\":[";
    for (std::size_t i = 0; i < timeline.segments.size(); ++i) {
        const auto& seg = timeline.segments[i];
        if (i)
            out += ',';
        out += "{\"phase\":\"";
        out += spanPhaseName(seg.phase);
        out += "\",\"start_us\":";
        out += std::to_string(seg.startUs);
        out += ",\"end_us\":";
        out += std::to_string(seg.endUs);
        out += '}';
    }
    out += "]}";
}

std::string
SpanTracker::attributionJson() const
{
    const LatencyBreakdown bd = breakdown();
    std::string out;
    out += "{\"requests\":";
    out += std::to_string(bd.requests);
    out += ",\"e2e_total_ms\":";
    appendNum(out, bd.e2eTotalMs);
    out += ",\"attributed_total_ms\":";
    appendNum(out, bd.attributedTotalMs);
    out += ",\"phases\":{";
    for (std::size_t i = 0; i < bd.phases.size(); ++i) {
        const PhaseStat& ps = bd.phases[i];
        if (i)
            out += ',';
        out += '"';
        out += spanPhaseName(ps.phase);
        out += "\":{\"requests\":";
        out += std::to_string(ps.requests);
        out += ",\"total_ms\":";
        appendNum(out, ps.totalMs);
        out += ",\"mean\":";
        appendNum(out, ps.meanMs);
        out += ",\"p50\":";
        appendNum(out, ps.p50Ms);
        out += ",\"p99\":";
        appendNum(out, ps.p99Ms);
        out += ",\"max\":";
        appendNum(out, ps.maxMs);
        out += '}';
    }
    out += "},\"exemplars\":[";
    for (std::size_t i = 0; i < exemplars_.size(); ++i) {
        if (i)
            out += ',';
        out += "{\"slowdown\":";
        appendNum(out, exemplars_[i].slowdown);
        out += ",\"timeline\":";
        appendTimelineJson(out, exemplars_[i].timeline);
        out += '}';
    }
    out += "]}";
    return out;
}

std::string
SpanTracker::flightRecorderJson(const std::vector<SpanTimeline>& live) const
{
    std::string out;
    out += "{\"recent\":[";
    // Oldest first: the ring's logical order starts at ringNext_,
    // which equals ring_.size() until the ring fills.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const std::size_t idx = (ringNext_ + i) % ring_.size();
        if (i)
            out += ',';
        appendTimelineJson(out, ring_[idx]);
    }
    out += "],\"live\":[";
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (i)
            out += ',';
        appendTimelineJson(out, live[i]);
    }
    out += "]}";
    return out;
}

}  // namespace splitwise::telemetry
