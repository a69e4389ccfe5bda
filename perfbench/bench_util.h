#ifndef SPLITWISE_PERFBENCH_BENCH_UTIL_H_
#define SPLITWISE_PERFBENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared pieces of the benchmark runner: run options, the metric
 * sheet each workload fills, and small timing/statistics helpers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line input of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement window, seconds. */
    double seconds = 10.0;
    /** Traced run: report the per-layer split instead of end to end. */
    bool trace = false;
    /** splitwise_server binary (live_http only). */
    std::string serverPath;
    /** Directory for run artifacts (server reports). */
    std::string workDir;
};

/** One named value with its unit, in print order. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produced: the output-check ledger, the metrics
 * of the requested kind, and human-readable digest lines.
 */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any output check failed. */
    bool correct = true;
    std::vector<Metric> metrics;
    std::vector<std::string> digest;

    void
    set(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed check; @p ops ops count as failed. */
    void
    fail(std::uint64_t ops, const std::string& why)
    {
        failed += ops;
        correct = false;
        digest.push_back("CHECK FAILED: " + why);
    }
};

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** User+system CPU of this process, seconds. */
inline double
processCpuSeconds()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Peak resident set of this process, MB. */
inline double
processPeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * The p50 and p90 of a sample taken pass by pass, each summarized as
 * the value sustained in three passes of four: the upper quartile of
 * the per-pass percentiles. On a shared host the speed of whole
 * passes jumps between a common slow state and fast phases; the
 * quartile stays in the common state where a median over all samples
 * flips between the two.
 */
class PassPercentiles {
  public:
    void
    addPass(const std::vector<double>& values)
    {
        if (values.empty())
            return;
        p50_.push_back(quantile(values, 0.5));
        p90_.push_back(quantile(values, 0.9));
    }

    double p50() const { return quantile(p50_, 0.75); }
    double p90() const { return quantile(p90_, 0.75); }

  private:
    std::vector<double> p50_;
    std::vector<double> p90_;
};

/**
 * Ops of one kind (traced or untraced), pass by pass: op wall times,
 * throughput and CPU per op. Like PassPercentiles, throughput is the
 * rate sustained in three passes of four (lower quartile of the
 * per-pass rates) and CPU per op the matching upper quartile.
 */
class OpLedger {
  public:
    /** One op of the current pass. */
    void
    add(double ms, double cpu_ms)
    {
        passOpMs_.push_back(ms);
        passWallMs_ += ms;
        passCpuMs_ += cpu_ms;
    }

    /** Close the current pass. */
    void
    endPass()
    {
        if (!passOpMs_.empty() && passWallMs_ > 0) {
            const auto ops = static_cast<double>(passOpMs_.size());
            passOpsPerS_.push_back(ops * 1000.0 / passWallMs_);
            passCpuMsPerOp_.push_back(passCpuMs_ / ops);
            opMs_.addPass(passOpMs_);
        }
        passOpMs_.clear();
        passWallMs_ = 0.0;
        passCpuMs_ = 0.0;
    }

    /** A whole pass at once: its op times, wall and CPU time. */
    void
    addPass(const std::vector<double>& op_ms, double wall_ms, double cpu_ms)
    {
        passOpMs_ = op_ms;
        passWallMs_ = wall_ms;
        passCpuMs_ = cpu_ms;
        endPass();
    }

    double opP50Ms() const { return opMs_.p50(); }
    double opP90Ms() const { return opMs_.p90(); }
    double opsPerS() const { return quantile(passOpsPerS_, 0.25); }
    double cpuMsPerOp() const { return quantile(passCpuMsPerOp_, 0.75); }
    double
    lastPassOpsPerS() const
    {
        return passOpsPerS_.empty() ? 0.0 : passOpsPerS_.back();
    }

  private:
    PassPercentiles opMs_;
    std::vector<double> passOpsPerS_;
    std::vector<double> passCpuMsPerOp_;
    std::vector<double> passOpMs_;
    double passWallMs_ = 0.0;
    double passCpuMs_ = 0.0;
};

/** Share of the run spent taking set-up samples. */
constexpr double kSetupShare = 0.08;

/**
 * Set-up time, sampled through the whole run. A single construction
 * takes milliseconds and swings by half with the host's state, so
 * set-up time is taken over many samples spread over the run and, like
 * the op times, reported as the value sustained in three samples of
 * four: their upper quartile.
 */
class SetupSampler {
  public:
    explicit SetupSampler(std::function<void()> build)
        : build_(std::move(build))
    {
    }

    /** Build at least @p min_samples times, then until @p ms passed. */
    void
    sample(double ms, int min_samples = 1)
    {
        const auto start = Clock::now();
        for (int n = 0; n < min_samples || msSince(start) < ms; ++n) {
            const auto t0 = Clock::now();
            build_();
            samples_.push_back(msSince(t0));
        }
    }

    /** A set-up time measured elsewhere, ms. */
    void add(double ms) { samples_.push_back(ms); }

    /** Upper quartile of the samples, seconds. */
    double seconds() const { return quantile(samples_, 0.75) / 1e3; }

    /** Sample count and quartiles, for the digest. */
    std::string
    summary() const
    {
        char line[128];
        std::snprintf(line, sizeof line,
                      "setup ms: n=%zu p25=%.4f p50=%.4f p75=%.4f",
                      samples_.size(), quantile(samples_, 0.25),
                      quantile(samples_, 0.5), quantile(samples_, 0.75));
        return line;
    }

  private:
    std::function<void()> build_;
    std::vector<double> samples_;
};

/**
 * The pass loop of every workload. In a traced run passes alternate
 * untraced and traced, starting untraced. Passes keep starting until
 * the next one would end more than options.seconds after
 * @p run_start; at least @p min_passes run, twice that in a traced
 * run. @p pass(i, traced) runs pass i and returns its ops per second,
 * or a negative value to stop early. After each pass, @p setup (if
 * any) takes samples for kSetupShare of the pass's time.
 * @return the per-pass rates, for the digest.
 */
template <typename PassFn>
std::string
runPasses(const Options& options, Clock::time_point run_start,
          int min_passes, SetupSampler* setup, PassFn&& pass)
{
    std::string rates = "ops/s per pass:";
    if (options.trace)
        min_passes *= 2;
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        const bool traced = options.trace && i % 2 == 1;
        const auto pass_start = Clock::now();
        const double ops_per_s = pass(i, traced);
        if (ops_per_s < 0.0)
            break;
        if (setup)
            setup->sample(msSince(pass_start) * kSetupShare);
        char text[48];
        std::snprintf(text, sizeof text, " %.2f%s", ops_per_s,
                      traced ? "(traced)" : "");
        rates += text;
        const double per_pass = msSince(start) / (i + 1);
        if (i + 1 >= min_passes &&
            msSince(run_start) + per_pass > options.seconds * 1e3)
            break;
    }
    return rates;
}

/** Tracing overhead: how much slower the traced passes ran, %. */
inline double
overheadPct(double untraced_ops_per_s, double traced_ops_per_s)
{
    if (untraced_ops_per_s <= 0.0)
        return 0.0;
    return 100.0 * (untraced_ops_per_s - traced_ops_per_s) /
           untraced_ops_per_s;
}

/**
 * The end-to-end sheet. Every workload reports every field; where a
 * workload has no client of its own, the client TTFT fields carry the
 * simulated clients' TTFT (see README.md).
 */
struct EndToEnd {
    double opsPerS = 0.0;
    double opP50Ms = 0.0;
    double opP90Ms = 0.0;
    double cpuMsPerOp = 0.0;
    double peakRssMb = 0.0;
    double setupS = 0.0;
    double simTtftP99Ms = 0.0;
    double simTbtP99Ms = 0.0;
    double clientTtftP50Ms = 0.0;
    double clientTtftP90Ms = 0.0;
};

inline void
emitEndToEnd(Outcome& out, const EndToEnd& e)
{
    out.set("ops_per_s", e.opsPerS, "1/s");
    out.set("op_p50_ms", e.opP50Ms, "ms");
    out.set("op_p90_ms", e.opP90Ms, "ms");
    out.set("cpu_ms_per_op", e.cpuMsPerOp, "ms");
    out.set("peak_rss_mb", e.peakRssMb, "MB");
    out.set("setup_s", e.setupS, "s");
    out.set("sim_ttft_p99_ms", e.simTtftP99Ms, "ms");
    out.set("sim_tbt_p99_ms", e.simTbtP99Ms, "ms");
    out.set("client_ttft_p50_ms", e.clientTtftP50Ms, "ms");
    out.set("client_ttft_p90_ms", e.clientTtftP90Ms, "ms");
}

/**
 * The per-layer sheet of a traced run. A layer a workload does not
 * pass through reads 0.
 */
struct LayerSheet {
    // Host time split of the simulation loop.
    double nextNs = 0.0;
    double admitNs = 0.0;
    double admitShare = 0.0;
    double iterNs = 0.0;
    double iterShare = 0.0;
    double foldNs = 0.0;
    // Simulated work: exact repeats for a fixed seed.
    double eventsPerOp = 0.0;
    double queuePeak = 0.0;
    double iterationsPerOp = 0.0;
    double kvTransfersPerOp = 0.0;
    double memoryStalls = 0.0;
    double preemptions = 0.0;
    double liveSlotsPeak = 0.0;
    double rejected = 0.0;
    double hitTurnsFrac = 0.0;
    double promptSkippedFrac = 0.0;
    // Steps of one run, called one by one.
    double traceMs = 0.0;
    double setupMs = 0.0;
    double runMs = 0.0;
    double sloMs = 0.0;
    double jsonMs = 0.0;
    double cellMs = 0.0;
    // Live path.
    double ingressTtftMs = 0.0;
    double httpOverheadMs = 0.0;
    double connectMs = 0.0;
    double timeWaitAtStart = 0.0;
    double retainedKbPerStream = 0.0;
    // Traced against untraced passes of the same run.
    double traceOverheadPct = 0.0;
};

inline void
emitLayers(Outcome& out, const LayerSheet& l)
{
    out.set("workload.next_ns", l.nextNs, "ns");
    out.set("core.cls.admit_ns", l.admitNs, "ns");
    out.set("core.cls.admit_share", l.admitShare, "fraction");
    out.set("engine.iter_ns", l.iterNs, "ns");
    out.set("engine.iter_share", l.iterShare, "fraction");
    out.set("metrics.fold_ns", l.foldNs, "ns");
    out.set("sim.events_per_op", l.eventsPerOp, "count");
    out.set("sim.queue_peak", l.queuePeak, "count");
    out.set("engine.iterations_per_op", l.iterationsPerOp, "count");
    out.set("engine.kv_transfers_per_op", l.kvTransfersPerOp, "count");
    out.set("engine.memory_stalls", l.memoryStalls, "count");
    out.set("engine.preemptions", l.preemptions, "count");
    out.set("engine.live_slots_peak", l.liveSlotsPeak, "count");
    out.set("core.cls.rejected", l.rejected, "count");
    out.set("sched.hit_turns_frac", l.hitTurnsFrac, "fraction");
    out.set("sched.prompt_skipped_frac", l.promptSkippedFrac, "fraction");
    out.set("workload.trace_ms", l.traceMs, "ms");
    out.set("core.setup_ms", l.setupMs, "ms");
    out.set("core.run_ms", l.runMs, "ms");
    out.set("core.slo_ms", l.sloMs, "ms");
    out.set("core.report.json_ms", l.jsonMs, "ms");
    out.set("provision.cell_ms", l.cellMs, "ms");
    out.set("core.ingress.ttft_ms", l.ingressTtftMs, "ms");
    out.set("server.http_overhead_ms", l.httpOverheadMs, "ms");
    out.set("server.connect_ms", l.connectMs, "ms");
    out.set("server.time_wait_at_start", l.timeWaitAtStart, "count");
    out.set("server.retained_kb_per_stream", l.retainedKbPerStream, "KB");
    out.set("trace.overhead_pct", l.traceOverheadPct, "%");
}

/** Workload entry points; each fills end-to-end or per-layer metrics. */
Outcome runFleet2k(const Options& options);
Outcome runChatPrefix100(const Options& options);
Outcome runDesignSweep(const Options& options);
Outcome runLiveHttp(const Options& options);

}  // namespace perfbench

#endif  // SPLITWISE_PERFBENCH_BENCH_UTIL_H_
