#ifndef SPLITWISE_TELEMETRY_TRACE_RECORDER_H_
#define SPLITWISE_TELEMETRY_TRACE_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace splitwise::telemetry {

/**
 * One key/value pair attached to a trace event.
 *
 * Values are pre-encoded as JSON fragments at construction time, so
 * the recorder never needs type dispatch at export.
 */
struct TraceArg {
    std::string key;
    /** Already-valid JSON value (number or quoted string). */
    std::string json;

    TraceArg(std::string k, std::int64_t v);
    TraceArg(std::string k, std::uint64_t v);
    TraceArg(std::string k, int v);
    TraceArg(std::string k, double v);
    TraceArg(std::string k, const char* v);
    TraceArg(std::string k, const std::string& v);
};

using TraceArgs = std::vector<TraceArg>;

/**
 * A (pid, tid) pair addressing one horizontal lane of the trace.
 *
 * The Chrome trace_event format groups lanes (threads) under
 * processes; we map the simulation onto three synthetic processes:
 * requests (one lane per request), machines (one lane per machine),
 * and the cluster control plane (one lane).
 */
struct Track {
    int pid = 0;
    std::int64_t tid = 0;
};

/**
 * Records simulation spans and instant events and exports them as
 * Chrome/Perfetto `trace_event` JSON, so a run opens directly in
 * ui.perfetto.dev or chrome://tracing.
 *
 * Span discipline: begin()/end() nest per track (a per-track stack).
 * transition() implements the exclusive-phase idiom used for request
 * lifecycles - at most one span open per track, each transition
 * closing the previous phase. Export fails loudly (panic) on
 * unmatched end(); finish-time leftovers are the caller's job to
 * close (see close()).
 *
 * The recorder holds no per-request state. A KV handoff's flow arrow
 * spans two machines, so the caller remembers which requests still
 * owe a flowEnd (the request row's kvFlowPending bit).
 *
 * All timestamps are simulated microseconds, which is exactly the
 * unit the trace_event format expects in "ts".
 */
class TraceRecorder {
  public:
    /** Lane of one request's lifecycle. */
    static Track requestTrack(std::uint64_t request_id);
    /** Lane of one machine's iterations and fault epochs. */
    static Track machineTrack(int machine_id);
    /** Lane of cluster-level control events. */
    static Track clusterTrack();

    /** Attach a human-readable lane name (Perfetto thread_name). */
    void setTrackName(Track track, std::string name);

    /** Open a span on @p track. */
    void begin(Track track, const char* name, sim::TimeUs ts,
               TraceArgs args = {});

    /** Close the innermost open span on @p track. */
    void end(Track track, sim::TimeUs ts);

    /**
     * Exclusive phase change: when the open span on @p track already
     * carries @p name this is a no-op; otherwise the open span (if
     * any) is closed and a new one opened.
     */
    void transition(Track track, const char* name, sim::TimeUs ts,
                    TraceArgs args = {});

    /** Close whatever span is open on @p track; no-op when none. */
    void close(Track track, sim::TimeUs ts);

    /** Record a zero-duration instant event. */
    void instant(Track track, const char* name, sim::TimeUs ts,
                 TraceArgs args = {});

    /**
     * Flow events ('s'/'t'/'f') draw an arrow between tracks sharing
     * @p flow_id — how one request's KV handoff is linked across its
     * prompt-machine slice, its request-track transfer span, and its
     * token-machine slice. The trace_event format binds each flow
     * point to the slice *open on that track at @p ts*, so callers
     * must emit them while the relevant span is open.
     */
    void flowStart(Track track, const char* name, sim::TimeUs ts,
                   std::uint64_t flow_id);

    /** Intermediate flow point (same binding rule as flowStart). */
    void flowStep(Track track, const char* name, sim::TimeUs ts,
                  std::uint64_t flow_id);

    /** Terminating flow point (emitted with bp:"e"). */
    void flowEnd(Track track, const char* name, sim::TimeUs ts,
                 std::uint64_t flow_id);

    /** Number of recorded events (metadata excluded). */
    std::size_t eventCount() const { return events_.size(); }

    /** Number of spans currently open across all tracks. */
    std::size_t openSpans() const;

    /**
     * Export as a Chrome trace_event JSON object. Events are stably
     * sorted by timestamp so every track reads monotonically.
     */
    std::string toJson() const;

    /** Write toJson() to @p path. */
    void writeFile(const std::string& path) const;

  private:
    struct Event {
        char ph = 'i';  // 'B', 'E', 'i', or flow 's'/'t'/'f'
        Track track;
        sim::TimeUs ts = 0;
        const char* name = "";
        /** Flow binding id; meaningful only for 's'/'t'/'f'. */
        std::uint64_t flowId = 0;
        TraceArgs args;
    };

    using TrackKey = std::pair<int, std::int64_t>;
    static TrackKey key(Track t) { return {t.pid, t.tid}; }

    std::vector<Event> events_;
    /** Stack of open span names per track. */
    std::map<TrackKey, std::vector<const char*>> open_;
    std::map<TrackKey, std::string> trackNames_;
};

}  // namespace splitwise::telemetry

#endif  // SPLITWISE_TELEMETRY_TRACE_RECORDER_H_
