#ifndef SPLITWISE_TELEMETRY_SPAN_TRACKER_H_
#define SPLITWISE_TELEMETRY_SPAN_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/summary.h"
#include "sim/time.h"

namespace splitwise::telemetry {

/**
 * The request lifecycle phases latency is attributed to. A request's
 * timeline is a contiguous chain of these — every simulated
 * microsecond between arrival and completion belongs to exactly one
 * phase, which is why per-phase sums reproduce E2E exactly.
 */
enum class SpanPhase : std::uint8_t {
    /** Waiting in a machine's prompt queue. */
    kQueue = 0,
    /** Queue wait taken while the brownout ladder was engaged. */
    kBrownoutStall,
    /** Prompt computation (all chunks, including inter-chunk waits). */
    kPrefill,
    /** Blocked waiting for destination KV memory. */
    kKvStall,
    /** KV cache transfer (or checkpoint restore) in flight. */
    kKvTransfer,
    /** Retry backoff between failed KV-transfer attempts. */
    kKvBackoff,
    /** Token generation batches (including inter-batch waits). */
    kDecode,
    /** Wall time lost to a machine crash: everything the request did
     *  since its last (re)start, folded on restart. */
    kRestartPenalty,
    /** Suffix-only prompt computation after a session prefix-cache
     *  hit (prefix policy); kept distinct from kPrefill so reports
     *  separate cache-assisted prefills from full ones. */
    kPrefixHit,
};

inline constexpr int kSpanPhaseCount = 9;

/** Stable lower-case phase name used in JSON and reports. */
const char* spanPhaseName(SpanPhase phase);

/** One contiguous stretch of a request's life in a single phase. */
struct SpanSegment {
    SpanPhase phase = SpanPhase::kQueue;
    sim::TimeUs startUs = 0;
    /** kSpanOpen while the segment is still running. */
    sim::TimeUs endUs = 0;
};

/** Sentinel end for a still-open segment. */
inline constexpr sim::TimeUs kSpanOpen = -1;

/**
 * The span state of one live request: its timeline so far plus the
 * bookkeeping restart() needs. The request's pool row owns it, so the
 * tracker keeps no per-request table; it only mutates the state it is
 * handed. A row with no segments has no open timeline.
 */
struct RequestSpans {
    /** Contiguous from arrivalUs: segments[i].endUs ==
     *  segments[i+1].startUs. Keeps its capacity when cleared. */
    std::vector<SpanSegment> segments;
    sim::TimeUs arrivalUs = 0;
    /** Sim time the current incarnation began (== arrival until the
     *  first restart). */
    sim::TimeUs incarnationStartUs = 0;
    /** First segment index of the current incarnation. */
    std::uint32_t incarnationStart = 0;
    /** restart() calls folded into this timeline. Tracks
     *  LiveRequest::restarts, but keeps telemetry/ free of engine
     *  types and fills what would be padding. */
    std::int32_t restarts = 0;

    /** True while a timeline is open (transitioned, not completed). */
    bool open() const { return !segments.empty(); }
};

/** Full causal span timeline of one request. */
struct SpanTimeline {
    std::uint64_t requestId = 0;
    sim::TimeUs arrivalUs = 0;
    /** kSpanOpen while the request is still live. */
    sim::TimeUs doneUs = kSpanOpen;
    int restarts = 0;
    /** Contiguous: segments[i].endUs == segments[i+1].startUs. */
    std::vector<SpanSegment> segments;
};

/** Per-phase attribution statistics over completed requests. */
struct PhaseStat {
    SpanPhase phase = SpanPhase::kQueue;
    /** Requests that spent any time in this phase. */
    std::size_t requests = 0;
    /** Total ms across all completed requests (sums to E2E). */
    double totalMs = 0.0;
    /** Distribution over the requests that touched the phase. */
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
};

/**
 * Critical-path latency attribution over a whole run: where E2E time
 * went, per phase. attributedTotalMs equals e2eTotalMs by
 * construction (contiguous timelines); reporting both lets consumers
 * assert the invariant instead of trusting it.
 */
struct LatencyBreakdown {
    bool enabled = false;
    std::size_t requests = 0;
    double e2eTotalMs = 0.0;
    double attributedTotalMs = 0.0;
    std::vector<PhaseStat> phases;
};

/** One SLO-offender exemplar: a full timeline kept for postmortem. */
struct SpanExemplar {
    /** Worst per-metric Table VI slowdown of the request. */
    double slowdown = 0.0;
    SpanTimeline timeline;
};

struct SpanTrackerConfig {
    /** Worst-offender timelines retained (0 disables exemplars). */
    int exemplarK = 0;
};

/**
 * Attributes per-request causal span timelines and aggregates them
 * into a latency breakdown, SLO-breach exemplars, and a bounded
 * flight-recorder ring.
 *
 * Engine hooks call transition() as a request changes phase; the
 * cluster calls restart() when a crash throws a request back to
 * admission and complete() when it finishes. Each call takes the
 * request's RequestSpans, which lives in its pool row: recycled rows
 * keep their segment capacity, so steady-state tracking does no
 * per-transition heap allocation once warm, and the tracker itself
 * holds only cross-request state plus a count of open timelines.
 *
 * Completed timelines are folded into per-phase Summary aggregates.
 * Timeline memory outside the rows is O(flight ring + K exemplars);
 * the aggregates keep one sample per completed request per phase it
 * visited, so they grow O(completed requests).
 */
class SpanTracker {
  public:
    /** Flight-recorder ring size (most recent completed timelines). */
    static constexpr std::size_t kFlightRecorderCapacity = 256;

    explicit SpanTracker(SpanTrackerConfig config = {});

    /**
     * Brownout ladder level from the CLS; while > 0, queue time is
     * recorded as kBrownoutStall so degraded-mode waiting is
     * attributable separately from ordinary queueing.
     */
    void setBrownoutLevel(int level);

    /**
     * Move a request into @p phase at @p now. Opens the timeline on
     * first sight (arrival = now); a repeat of the open phase is a
     * no-op, anything else closes the open segment and opens a new
     * one — the exclusive-phase idiom shared with TraceRecorder.
     */
    void transition(RequestSpans& spans, SpanPhase phase, sim::TimeUs now);

    /**
     * Fold everything the request did since its last (re)start into a
     * single kRestartPenalty segment ending at @p now — the work was
     * lost, so it is attributed as crash penalty, not as useful
     * prefill/decode. Leaves no open segment; the re-admission hook
     * opens the next one at the same timestamp.
     */
    void restart(RequestSpans& spans, sim::TimeUs now);

    /**
     * Finish request @p request_id: closes the open segment, folds
     * the timeline into the per-phase aggregates, considers it for
     * the exemplar top-K (ranked by @p slowdown), pushes it into the
     * flight recorder, and clears @p spans.
     */
    void complete(RequestSpans& spans, std::uint64_t request_id,
                  sim::TimeUs now, double slowdown);

    /** Number of open (incomplete) timelines. */
    std::size_t liveCount() const { return open_; }

    /** Completed-request count folded into the aggregates. */
    std::size_t completedCount() const { return completed_; }

    /**
     * Structural self-check of one open timeline, used by the DST
     * invariant checker: contiguous from arrival, exactly one open
     * segment (the last), end >= start everywhere. nullptr when
     * sound, else the defect.
     */
    static const char* timelineDefect(const RequestSpans& spans);

    /** Aggregate per-phase attribution over completed requests. */
    LatencyBreakdown breakdown() const;

    /** Worst-offender exemplars, worst first. */
    const std::vector<SpanExemplar>& exemplars() const {
        return exemplars_;
    }

    /**
     * Breakdown + exemplar timelines as a standalone JSON document —
     * what `--breakdown-out` writes.
     */
    std::string attributionJson() const;

    /**
     * Flight-recorder dump: the most recent completed timelines
     * (oldest first) plus the caller's still-open ones, as JSON.
     * Written when a DST invariant fires so the last moments before
     * the violation are reconstructable. @p live is dumped in the
     * order given.
     */
    std::string flightRecorderJson(
        const std::vector<SpanTimeline>& live) const;

  private:
    static void appendTimelineJson(std::string& out,
                                   const SpanTimeline& timeline);

    SpanTrackerConfig config_;
    int brownoutLevel_ = 0;
    /** Timelines opened by transition() and not yet completed. */
    std::size_t open_ = 0;

    std::size_t completed_ = 0;
    double e2eTotalMs_ = 0.0;
    double attributedTotalMs_ = 0.0;
    metrics::Summary phaseMs_[kSpanPhaseCount];
    double phaseTotalMs_[kSpanPhaseCount] = {};

    /** Sorted worst-first, at most exemplarK entries. */
    std::vector<SpanExemplar> exemplars_;

    /** Fixed-capacity ring of recent completed timelines. */
    std::vector<SpanTimeline> ring_;
    std::size_t ringNext_ = 0;
};

}  // namespace splitwise::telemetry

#endif  // SPLITWISE_TELEMETRY_SPAN_TRACKER_H_
