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

SpanTracker::Slot&
SpanTracker::slotOf(std::uint64_t request_id)
{
    auto it = live_.find(request_id);
    if (it != live_.end())
        return slots_[it->second];
    std::size_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        idx = slots_.size();
        slots_.emplace_back();
    }
    live_.emplace(request_id, idx);
    Slot& slot = slots_[idx];
    slot.timeline.requestId = request_id;
    slot.timeline.restarts = 0;
    slot.timeline.doneUs = kSpanOpen;
    slot.timeline.segments.clear();  // capacity retained across reuse
    slot.incarnationStart = 0;
    return slot;
}

void
SpanTracker::closeOpenSegment(Slot& slot, sim::TimeUs now)
{
    auto& segments = slot.timeline.segments;
    if (!segments.empty() && segments.back().endUs == kSpanOpen)
        segments.back().endUs = now;
}

void
SpanTracker::transition(std::uint64_t request_id, SpanPhase phase,
                        sim::TimeUs now)
{
    // Degraded-mode queueing is its own phase so brownout penalties
    // don't masquerade as ordinary queue wait.
    if (phase == SpanPhase::kQueue && brownoutLevel_ > 0)
        phase = SpanPhase::kBrownoutStall;

    // Single hash probe: only a slot slotOf just created (or reused)
    // has no segments — transition and restart always leave one.
    Slot& slot = slotOf(request_id);
    if (slot.timeline.segments.empty()) {
        slot.timeline.arrivalUs = now;
        slot.incarnationStartUs = now;
    }
    auto& segments = slot.timeline.segments;
    if (!segments.empty() && segments.back().endUs == kSpanOpen) {
        if (segments.back().phase == phase)
            return;  // already in this phase
        segments.back().endUs = now;
    }
    segments.push_back({phase, now, kSpanOpen});
}

void
SpanTracker::restart(std::uint64_t request_id, sim::TimeUs now)
{
    auto it = live_.find(request_id);
    if (it == live_.end())
        sim::panic("SpanTracker::restart for untracked request");
    Slot& slot = slots_[it->second];
    auto& segments = slot.timeline.segments;
    closeOpenSegment(slot, now);
    // Everything since the last (re)start was lost work; collapse it
    // into one restart_penalty segment. Back-to-back crashes extend
    // the previous penalty instead of stacking zero-glued segments.
    segments.resize(slot.incarnationStart);
    if (!segments.empty() &&
        segments.back().phase == SpanPhase::kRestartPenalty &&
        segments.back().endUs == slot.incarnationStartUs) {
        segments.back().endUs = now;
    } else {
        segments.push_back({SpanPhase::kRestartPenalty,
                            slot.incarnationStartUs, now});
    }
    slot.incarnationStart = segments.size();
    slot.incarnationStartUs = now;
    ++slot.timeline.restarts;
}

void
SpanTracker::complete(std::uint64_t request_id, sim::TimeUs now,
                      double slowdown)
{
    auto it = live_.find(request_id);
    if (it == live_.end())
        sim::panic("SpanTracker::complete for untracked request");
    const std::size_t idx = it->second;
    Slot& slot = slots_[idx];
    closeOpenSegment(slot, now);
    slot.timeline.doneUs = now;

    double perPhaseMs[kSpanPhaseCount] = {};
    bool touched[kSpanPhaseCount] = {};
    double attributedMs = 0.0;
    for (const auto& seg : slot.timeline.segments) {
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
    e2eTotalMs_ += usToMsF(now - slot.timeline.arrivalUs);
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
            exemplars_.insert(pos, {slowdown, slot.timeline});
            if (exemplars_.size() > k)
                exemplars_.pop_back();
        }
    }

    if (ring_.size() < kFlightRecorderCapacity) {
        ring_.push_back(slot.timeline);
    } else {
        // Copy-assign reuses the evicted entry's segment storage.
        ring_[ringNext_] = slot.timeline;
    }
    ringNext_ = (ringNext_ + 1) % kFlightRecorderCapacity;

    live_.erase(it);
    freeSlots_.push_back(idx);
}

const SpanTimeline*
SpanTracker::liveTimeline(std::uint64_t request_id) const
{
    auto it = live_.find(request_id);
    return it == live_.end() ? nullptr : &slots_[it->second].timeline;
}

const char*
SpanTracker::timelineDefect(const SpanTimeline& tl, std::uint64_t id)
{
    if (tl.requestId != id)
        return "slot holds a different request";
    if (tl.segments.empty())
        return "live timeline with no segments";
    if (tl.doneUs != kSpanOpen)
        return "live timeline already completed";
    if (tl.segments.front().startUs != tl.arrivalUs)
        return "first segment does not start at arrival";
    for (std::size_t i = 0; i < tl.segments.size(); ++i) {
        const auto& seg = tl.segments[i];
        const bool last = i + 1 == tl.segments.size();
        if (!last && seg.endUs == kSpanOpen)
            return "open segment is not the last";
        if (last && seg.endUs != kSpanOpen)
            return "live timeline has no open segment";
        if (seg.endUs != kSpanOpen && seg.endUs < seg.startUs)
            return "segment ends before it starts";
        if (!last && tl.segments[i + 1].startUs != seg.endUs)
            return "gap between segments";
    }
    return nullptr;
}

std::string
SpanTracker::integrityError() const
{
    // The DST checker calls this at every quiescent point, so the
    // happy path must stay allocation-free: scan first, and only
    // build the report string once a defect is known to exist.
    bool defective = false;
    for (const auto& [id, idx] : live_) {
        if (timelineDefect(slots_[idx].timeline, id)) {
            defective = true;
            break;
        }
    }
    if (!defective)
        return "";
    // Deterministic report regardless of hash-map order: the lowest
    // defective request id wins.
    std::uint64_t bad = 0;
    const char* reason = nullptr;
    for (const auto& [id, idx] : live_) {
        const char* r = timelineDefect(slots_[idx].timeline, id);
        if (r && (!reason || id < bad)) {
            bad = id;
            reason = r;
        }
    }
    return "request " + std::to_string(bad) + ": " + reason;
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
SpanTracker::flightRecorderJson() const
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
    std::vector<std::uint64_t> ids;
    ids.reserve(live_.size());
    for (const auto& [id, idx] : live_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i)
            out += ',';
        appendTimelineJson(out, slots_[live_.at(ids[i])].timeline);
    }
    out += "]}";
    return out;
}

}  // namespace splitwise::telemetry
