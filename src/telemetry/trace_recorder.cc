#include "telemetry/trace_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/log.h"

namespace splitwise::telemetry {

namespace {

/** The three synthetic trace processes. */
constexpr int kRequestsPid = 1;
constexpr int kMachinesPid = 2;
constexpr int kClusterPid = 3;

const char*
pidName(int pid)
{
    switch (pid) {
      case kRequestsPid: return "requests";
      case kMachinesPid: return "machines";
      case kClusterPid: return "cluster";
    }
    return "?";
}

const char*
pidCategory(int pid)
{
    switch (pid) {
      case kRequestsPid: return "request";
      case kMachinesPid: return "machine";
      case kClusterPid: return "cluster";
    }
    return "event";
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
numJson(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

TraceArg::TraceArg(std::string k, std::int64_t v)
    : key(std::move(k)), json(std::to_string(v))
{
}

TraceArg::TraceArg(std::string k, std::uint64_t v)
    : key(std::move(k)), json(std::to_string(v))
{
}

TraceArg::TraceArg(std::string k, int v)
    : key(std::move(k)), json(std::to_string(v))
{
}

TraceArg::TraceArg(std::string k, double v)
    : key(std::move(k)), json(numJson(v))
{
}

TraceArg::TraceArg(std::string k, const char* v)
    : key(std::move(k)), json('"' + jsonEscape(v) + '"')
{
}

TraceArg::TraceArg(std::string k, const std::string& v)
    : key(std::move(k)), json('"' + jsonEscape(v) + '"')
{
}

Track
TraceRecorder::requestTrack(std::uint64_t request_id)
{
    return {kRequestsPid, static_cast<std::int64_t>(request_id)};
}

Track
TraceRecorder::machineTrack(int machine_id)
{
    return {kMachinesPid, machine_id};
}

Track
TraceRecorder::clusterTrack()
{
    return {kClusterPid, 0};
}

void
TraceRecorder::setTrackName(Track track, std::string name)
{
    trackNames_[key(track)] = std::move(name);
}

void
TraceRecorder::begin(Track track, const char* name, sim::TimeUs ts,
                     TraceArgs args)
{
    open_[key(track)].push_back(name);
    events_.push_back({'B', track, ts, name, 0, std::move(args)});
}

void
TraceRecorder::end(Track track, sim::TimeUs ts)
{
    auto it = open_.find(key(track));
    if (it == open_.end() || it->second.empty())
        sim::panic("TraceRecorder::end without a matching begin");
    it->second.pop_back();
    events_.push_back({'E', track, ts, "", 0, {}});
}

void
TraceRecorder::transition(Track track, const char* name, sim::TimeUs ts,
                          TraceArgs args)
{
    auto it = open_.find(key(track));
    if (it != open_.end() && !it->second.empty()) {
        if (std::strcmp(it->second.back(), name) == 0)
            return;  // already in this phase
        end(track, ts);
    }
    begin(track, name, ts, std::move(args));
}

void
TraceRecorder::close(Track track, sim::TimeUs ts)
{
    auto it = open_.find(key(track));
    if (it == open_.end())
        return;
    while (!it->second.empty())
        end(track, ts);
}

void
TraceRecorder::instant(Track track, const char* name, sim::TimeUs ts,
                       TraceArgs args)
{
    events_.push_back({'i', track, ts, name, 0, std::move(args)});
}

void
TraceRecorder::flowStart(Track track, const char* name, sim::TimeUs ts,
                         std::uint64_t flow_id)
{
    events_.push_back({'s', track, ts, name, flow_id, {}});
}

void
TraceRecorder::flowStep(Track track, const char* name, sim::TimeUs ts,
                        std::uint64_t flow_id)
{
    events_.push_back({'t', track, ts, name, flow_id, {}});
}

void
TraceRecorder::flowEnd(Track track, const char* name, sim::TimeUs ts,
                       std::uint64_t flow_id)
{
    events_.push_back({'f', track, ts, name, flow_id, {}});
}

std::size_t
TraceRecorder::openSpans() const
{
    std::size_t n = 0;
    for (const auto& [track, stack] : open_)
        n += stack.size();
    return n;
}

std::string
TraceRecorder::toJson() const
{
    // Stable timestamp sort keeps same-ts events in causal record
    // order (an E recorded before a B at the same instant stays
    // first), which is what per-track monotonicity validators and
    // Perfetto's importer expect.
    std::vector<std::size_t> order(events_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return events_[a].ts < events_[b].ts;
                     });

    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ',';
        first = false;
    };

    // Metadata: process names, plus any registered lane names.
    for (int pid : {kRequestsPid, kMachinesPid, kClusterPid}) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
            << pidName(pid) << "\"}}";
    }
    for (const auto& [track, name] : trackNames_) {
        sep();
        out << "{\"ph\":\"M\",\"pid\":" << track.first
            << ",\"tid\":" << track.second
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(name) << "\"}}";
    }

    for (std::size_t idx : order) {
        const Event& ev = events_[idx];
        sep();
        out << "{\"ph\":\"" << ev.ph << "\",\"pid\":" << ev.track.pid
            << ",\"tid\":" << ev.track.tid << ",\"ts\":" << ev.ts;
        const bool flow = ev.ph == 's' || ev.ph == 't' || ev.ph == 'f';
        if (ev.ph != 'E') {
            out << ",\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
                << (flow ? "flow" : pidCategory(ev.track.pid)) << '"';
        }
        if (ev.ph == 'i')
            out << ",\"s\":\"t\"";
        if (flow) {
            out << ",\"id\":" << ev.flowId;
            // Bind the terminating point to the *enclosing* slice end,
            // the convention Perfetto's importer expects for arrows
            // that land inside a slice rather than at its start.
            if (ev.ph == 'f')
                out << ",\"bp\":\"e\"";
        }
        if (!ev.args.empty()) {
            out << ",\"args\":{";
            for (std::size_t i = 0; i < ev.args.size(); ++i) {
                if (i)
                    out << ',';
                out << '"' << jsonEscape(ev.args[i].key)
                    << "\":" << ev.args[i].json;
            }
            out << '}';
        }
        out << '}';
    }
    out << "]}";
    return out.str();
}

void
TraceRecorder::writeFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("TraceRecorder::writeFile: cannot open " + path);
    out << toJson() << '\n';
}

}  // namespace splitwise::telemetry
