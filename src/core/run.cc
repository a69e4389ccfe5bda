#include "core/run.h"

#include <cstdio>
#include <utility>

#include "sim/log.h"
#include "sim/run_pool.h"

namespace splitwise::core {

namespace {

/** options.sim with the collection its sinks need switched on. */
SimConfig
effectiveConfig(const RunOptions& options)
{
    SimConfig config = options.sim;
    enableSinks(config, options.sinks);
    return config;
}

/**
 * Build the cluster, execute it via @p doRun (materialized trace or
 * pull stream), and write the requested sinks under run index
 * @p index. Shared spine of runOne and runStream.
 */
template <typename RunFn>
RunReport
runOneWith(const RunOptions& options, const SimConfig& config, int index,
           RunFn&& doRun)
{
    Cluster cluster(options.llm, options.design, config);
    if (!options.faults.empty())
        FaultInjector(cluster).apply(options.faults);
    RunReport report = doRun(cluster);
    writeSinks(cluster, report, options.sinks, index);
    return report;
}

/** Execute one trace of the options under an explicit run index. */
RunReport
runOne(const RunOptions& options, const SimConfig& config,
       const workload::Trace& trace, int index)
{
    return runOneWith(options, config, index,
                      [&](Cluster& cluster) { return cluster.run(trace); });
}

}  // namespace

std::string
indexedSinkPath(const std::string& path, int index)
{
    if (index == 0)
        return path;
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    const bool has_ext = dot != std::string::npos &&
                         (slash == std::string::npos || dot > slash);
    const std::string suffix = "." + std::to_string(index);
    if (!has_ext)
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

void
enableSinks(SimConfig& config, const RunSinks& sinks)
{
    if (!sinks.tracePath.empty())
        config.telemetry.traceEnabled = true;
    if (!sinks.timeseriesPath.empty() && config.telemetry.sampleIntervalUs <= 0)
        config.telemetry.sampleIntervalUs = sim::msToUs(1000.0);
    if (!sinks.breakdownPath.empty())
        config.telemetry.spanTracking = true;
}

void
writeSinks(Cluster& cluster, const RunReport& report, const RunSinks& sinks,
           int index)
{
    if (!sinks.tracePath.empty() && cluster.traceRecorder()) {
        const auto path = indexedSinkPath(sinks.tracePath, index);
        cluster.traceRecorder()->writeFile(path);
        std::printf("wrote trace %s (%zu events)\n", path.c_str(),
                    cluster.traceRecorder()->eventCount());
    }
    if (!sinks.timeseriesPath.empty() && !report.timeseries.empty()) {
        const auto path = indexedSinkPath(sinks.timeseriesPath, index);
        report.timeseries.writeCsv(path);
        std::printf("wrote timeseries %s (%zu rows)\n", path.c_str(),
                    report.timeseries.rows.size());
    }
    if (!sinks.breakdownPath.empty() && cluster.spanTracker()) {
        const auto path = indexedSinkPath(sinks.breakdownPath, index);
        const std::string json = cluster.spanTracker()->attributionJson();
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (!file)
            sim::fatal("core::writeSinks: cannot write breakdown file " +
                       path);
        std::fwrite(json.data(), 1, json.size(), file);
        std::fclose(file);
        std::printf("wrote breakdown %s (%zu requests)\n", path.c_str(),
                    cluster.spanTracker()->completedCount());
    }
}

RunReport
run(const RunOptions& options)
{
    if (options.traces.size() != 1) {
        sim::fatal("core::run expects exactly one trace (got " +
                   std::to_string(options.traces.size()) +
                   "); use runMany for batches");
    }
    return runOne(options, effectiveConfig(options), options.traces.front(),
                  /*index=*/0);
}

RunReport
runStream(const RunOptions& options, workload::TraceStream& stream)
{
    if (!options.traces.empty()) {
        sim::fatal("core::runStream: options.traces must be empty (got " +
                   std::to_string(options.traces.size()) +
                   "); the stream is the workload");
    }
    return runOneWith(options, effectiveConfig(options), /*index=*/0,
                      [&](Cluster& cluster) { return cluster.run(stream); });
}

RunReport
runLive(const RunOptions& options, Ingress& ingress, sim::Clock& clock,
        SessionRecording* capture)
{
    if (!options.traces.empty()) {
        sim::fatal("core::runLive: options.traces must be empty (got " +
                   std::to_string(options.traces.size()) +
                   "); the ingress is the workload");
    }
    return runOneWith(options, effectiveConfig(options), /*index=*/0,
                      [&](Cluster& cluster) {
                          return cluster.serve(ingress, clock, capture);
                      });
}

RunReport
replay(const RunOptions& options, const SessionRecording& recording)
{
    if (!options.traces.empty()) {
        sim::fatal("core::replay: options.traces must be empty (got " +
                   std::to_string(options.traces.size()) +
                   "); the recording is the workload");
    }
    return runOneWith(options, effectiveConfig(options), /*index=*/0,
                      [&](Cluster& cluster) {
                          for (const auto& c : recording.cancels)
                              cluster.scheduleCancel(c.requestId, c.at);
                          workload::VectorTraceStream stream(
                              recording.requests);
                          return cluster.run(stream);
                      });
}

std::vector<RunReport>
runMany(const RunOptions& options)
{
    const SimConfig config = effectiveConfig(options);
    const int jobs =
        options.jobs > 0 ? options.jobs : sim::RunPool::defaultJobs();
    sim::RunPool pool(jobs);
    return pool.map(options.traces,
                    [&](const workload::Trace& trace, std::size_t index) {
                        return runOne(options, config, trace,
                                      static_cast<int>(index));
                    });
}

}  // namespace splitwise::core
