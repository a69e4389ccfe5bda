/**
 * @file
 * The simulation workloads: fleet_2k and chat_prefix_100 (one long
 * streamed run per pass, an op is 1,000 consecutive arrivals) and
 * design_sweep (the Fig. 12 grid, an op is one sweep cell).
 *
 * The traced split uses only public seams: a wrapping TraceStream
 * times next() and closes admission windows, a time-advance hook
 * opens them when the clock reaches the pending arrival, and the
 * RunReport, RequestPool and Simulator supply the counts.
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/designs.h"
#include "core/json.h"
#include "core/report_io.h"
#include "core/slo.h"
#include "metrics/quantile_sketch.h"
#include "metrics/request_metrics.h"
#include "metrics/time_weighted.h"
#include "model/llm_config.h"
#include "provision/provisioner.h"
#include "sched/policy.h"
#include "workload/multi_turn.h"
#include "workload/trace_gen.h"
#include "workload/trace_stream.h"
#include "workload/workloads.h"

namespace perfbench {
namespace {

using namespace splitwise;

/** Arrivals per op on the streamed workloads. */
constexpr std::size_t kOpArrivals = 1000;
/** Throwaway constructions timed for setup_s before the passes. */
constexpr int kSetupSamples = 15;

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/**
 * Traced-pass state shared by the stream wrapper and the
 * time-advance hook. An admission window opens when the clock reaches
 * the pending arrival's time (the arrival event runs first at its
 * timestamp) and closes when that event pulls the next arrival, so it
 * covers pool acquire, CLS routing, policy and machine enqueue.
 */
struct LayerProbe {
    std::int64_t nextNs = 0;
    std::int64_t admitNs = 0;
    bool admitOpen = false;
    Clock::time_point admitStart;
    sim::TimeUs pendingArrival = -1;
    std::size_t queuePeak = 0;
};

/**
 * TraceStream wrapper: ends a pass after a fixed arrival count, marks
 * op boundaries every kOpArrivals pulls, counts the session mix, and
 * (with a probe) times next() and closes admission windows.
 */
class MeteredStream final : public workload::TraceStream {
  public:
    MeteredStream(workload::TraceStream& inner, std::size_t limit,
                  LayerProbe* probe)
        : inner_(inner), limit_(limit), probe_(probe)
    {
    }

    bool
    next(workload::Request& out) override
    {
        const auto entry = Clock::now();
        if (probe_ && probe_->admitOpen) {
            probe_->admitNs += nsBetween(probe_->admitStart, entry);
            probe_->admitOpen = false;
        }
        if (pulled_ % kOpArrivals == 0 && !markClosed_) {
            marks_.push_back(entry);
            cpuMarks_.push_back(processCpuSeconds());
            markClosed_ = pulled_ >= limit_;
        }
        if (pulled_ >= limit_)
            return false;
        const bool ok = inner_.next(out);
        if (probe_) {
            probe_->nextNs += nsBetween(entry, Clock::now());
            probe_->pendingArrival = ok ? out.arrival : -1;
        }
        if (!ok)
            return false;
        ++pulled_;
        if (out.turn > 0)
            ++laterTurns_;
        promptTokens_ += out.promptTokens;
        return true;
    }

    std::size_t pulled() const { return pulled_; }
    std::size_t laterTurns() const { return laterTurns_; }
    std::int64_t promptTokens() const { return promptTokens_; }
    const std::vector<Clock::time_point>& marks() const { return marks_; }
    const std::vector<double>& cpuMarks() const { return cpuMarks_; }

  private:
    workload::TraceStream& inner_;
    std::size_t limit_;
    LayerProbe* probe_;
    std::size_t pulled_ = 0;
    std::size_t laterTurns_ = 0;
    std::int64_t promptTokens_ = 0;
    bool markClosed_ = false;
    std::vector<Clock::time_point> marks_;
    std::vector<double> cpuMarks_;
};

/** One cluster built, run over a stream, and measured. */
struct PassStats {
    core::RunReport report;
    double setupMs = 0.0;
    double runMs = 0.0;
    /** Wall time of each full op. */
    std::vector<double> opMs;
    double opWallMs = 0.0;
    double opCpuMs = 0.0;
    std::uint64_t events = 0;
    std::size_t slotPeak = 0;
    LayerProbe probe;
    std::size_t arrivals = 0;
    std::size_t laterTurns = 0;
    std::int64_t promptTokens = 0;
};

PassStats
runPass(const model::LlmConfig& llm, const core::ClusterDesign& design,
        const core::SimConfig& config, workload::TraceStream& inner,
        std::size_t limit, bool traced)
{
    PassStats pass;
    const auto t0 = Clock::now();
    core::Cluster cluster(llm, design, config);
    pass.setupMs = msSince(t0);

    MeteredStream stream(inner, limit, traced ? &pass.probe : nullptr);
    if (traced) {
        sim::Simulator& simulator = cluster.simulator();
        LayerProbe& probe = pass.probe;
        simulator.addTimeAdvanceHook([&probe, &simulator](sim::TimeUs next) {
            probe.queuePeak =
                std::max(probe.queuePeak, simulator.pendingEvents());
            if (next == probe.pendingArrival) {
                probe.admitOpen = true;
                probe.admitStart = Clock::now();
            }
        });
    }
    const auto t1 = Clock::now();
    pass.report = cluster.run(stream);
    pass.runMs = msSince(t1);

    const auto& marks = stream.marks();
    const auto& cpu = stream.cpuMarks();
    for (std::size_t i = 1; i < marks.size(); ++i)
        pass.opMs.push_back(msBetween(marks[i - 1], marks[i]));
    if (marks.size() > 1) {
        pass.opWallMs = msBetween(marks.front(), marks.back());
        pass.opCpuMs = (cpu.back() - cpu.front()) * 1000.0;
    }
    pass.events = cluster.simulator().executedEvents();
    pass.slotPeak = cluster.requestPool().highWater();
    pass.arrivals = stream.pulled();
    pass.laterTurns = stream.laterTurns();
    pass.promptTokens = stream.promptTokens();
    return pass;
}

std::uint64_t
iterations(const core::RunReport& report)
{
    return report.promptPool.iterations + report.tokenPool.iterations;
}

/** Simulated-result digest; identical across passes of one seed. */
std::string
reportDigest(const PassStats& pass)
{
    const core::RunReport& r = pass.report;
    char line[512];
    std::snprintf(
        line, sizeof line,
        "submitted=%zu completed=%zu rejected=%llu events=%llu "
        "iterations=%llu kv_transfers=%llu prefix_hits=%llu "
        "simulated_s=%.6f ttft_p99_ms=%.9g tbt_p99_ms=%.9g",
        r.submitted, r.requests.completed(),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(pass.events),
        static_cast<unsigned long long>(iterations(r)),
        static_cast<unsigned long long>(r.transfers.transfers),
        static_cast<unsigned long long>(r.prefixCache.hits),
        sim::usToSeconds(r.simulatedUs), r.requests.ttftStats().p99,
        r.requests.tbtStats().p99);
    return line;
}

/**
 * metrics.fold_ns probe: replay one SignalTracker::set plus one
 * QuantileSketch::add per simulated iteration, in isolation, with
 * values drawn from the run's active-token distribution.
 */
double
foldProbeNs(const core::RunReport& report, std::uint64_t seed)
{
    metrics::TimeWeightedHistogram active = report.promptPool.activeTokens;
    active.merge(report.tokenPool.activeTokens);
    const auto cdf = active.cdf();
    if (cdf.empty())
        return 0.0;
    const std::size_t n = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(iterations(report), 10'000, 200'000));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<std::int64_t> values(n);
    for (auto& v : values) {
        const double x = u(rng);
        auto it = std::lower_bound(
            cdf.begin(), cdf.end(), x,
            [](const auto& step, double f) { return step.second < f; });
        v = it == cdf.end() ? cdf.back().first : it->first;
    }
    metrics::SignalTracker tracker;
    metrics::QuantileSketch sketch;
    tracker.start(0, 0);
    sim::TimeUs now = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        now += 1000 + static_cast<sim::TimeUs>(i % 7);
        tracker.set(now, values[i]);
        sketch.add(static_cast<double>(values[i]));
    }
    return static_cast<double>(nsBetween(t0, Clock::now())) /
           static_cast<double>(n);
}

/** Per-layer values of one traced run over a stream or trace. */
void
addLayerSamples(const PassStats& pass, double ops, std::uint64_t seed,
                std::vector<LayerSheet>& samples)
{
    const core::RunReport& r = pass.report;
    const double run_ns = pass.runMs * 1e6;
    const double next_ns = static_cast<double>(pass.probe.nextNs);
    const double admit_ns = static_cast<double>(pass.probe.admitNs);
    const double iter_ns = run_ns - next_ns - admit_ns;
    const double arrivals = static_cast<double>(pass.arrivals);
    const double iters = static_cast<double>(iterations(r));

    LayerSheet l;
    l.nextNs = next_ns / arrivals;
    l.admitNs = admit_ns / arrivals;
    l.admitShare = admit_ns / run_ns;
    l.iterNs = iters > 0 ? iter_ns / iters : 0.0;
    l.iterShare = iter_ns / run_ns;
    l.foldNs = foldProbeNs(r, seed);
    l.eventsPerOp = static_cast<double>(pass.events) / ops;
    l.queuePeak = static_cast<double>(pass.probe.queuePeak);
    l.iterationsPerOp = iters / ops;
    l.kvTransfersPerOp = static_cast<double>(r.transfers.transfers) / ops;
    l.memoryStalls = static_cast<double>(r.transfers.memoryStalls);
    l.preemptions = static_cast<double>(r.preemptions);
    l.liveSlotsPeak = static_cast<double>(pass.slotPeak);
    l.rejected = static_cast<double>(r.rejected);
    if (pass.laterTurns > 0)
        l.hitTurnsFrac = static_cast<double>(r.prefixCache.hits) /
                         static_cast<double>(pass.laterTurns);
    if (pass.promptTokens > 0)
        l.promptSkippedFrac = static_cast<double>(r.prefixCache.hitTokens) /
                              static_cast<double>(pass.promptTokens);
    l.traceMs = next_ns / 1e6;
    l.setupMs = pass.setupMs;
    l.runMs = pass.runMs;

    const core::SloChecker checker(model::llama2_70b());
    auto t = Clock::now();
    const core::SloReport slo = checker.evaluate(r.requests, core::SloSet{});
    l.sloMs = msSince(t);
    t = Clock::now();
    core::reportToJson(r, &slo);
    l.jsonMs = msSince(t);
    samples.push_back(l);
}

/** Field-wise median of the traced samples. */
LayerSheet
medianSheet(const std::vector<LayerSheet>& samples)
{
    LayerSheet out;
    if (samples.empty())
        return out;
    auto field = [&](double LayerSheet::*member) {
        std::vector<double> values;
        for (const auto& s : samples)
            values.push_back(s.*member);
        out.*member = median(values);
    };
    for (double LayerSheet::*m :
         {&LayerSheet::nextNs, &LayerSheet::admitNs, &LayerSheet::admitShare,
          &LayerSheet::iterNs, &LayerSheet::iterShare, &LayerSheet::foldNs,
          &LayerSheet::eventsPerOp, &LayerSheet::queuePeak,
          &LayerSheet::iterationsPerOp, &LayerSheet::kvTransfersPerOp,
          &LayerSheet::memoryStalls, &LayerSheet::preemptions,
          &LayerSheet::liveSlotsPeak, &LayerSheet::rejected,
          &LayerSheet::hitTurnsFrac, &LayerSheet::promptSkippedFrac,
          &LayerSheet::traceMs, &LayerSheet::setupMs, &LayerSheet::runMs,
          &LayerSheet::sloMs, &LayerSheet::jsonMs})
        field(m);
    return out;
}

/**
 * An exact-records pass against a sketch-mode report of the same
 * inputs: the simulated schedule must be the same, and each sketch
 * percentile within twice the sketch's relative error of the exact one.
 */
void
checkSketchAgainstExact(const core::RunReport& sketched,
                        const PassStats& exact, Outcome& out)
{
    const core::RunReport& r = exact.report;
    char line[256];
    std::snprintf(line, sizeof line,
                  "exact records: ttft_p99_ms=%.9g tbt_p99_ms=%.9g "
                  "(sketch %.9g, %.9g)",
                  r.requests.ttftStats().p99, r.requests.tbtStats().p99,
                  sketched.requests.ttftStats().p99,
                  sketched.requests.tbtStats().p99);
    out.digest.push_back(line);
    if (r.submitted != sketched.submitted ||
        r.requests.completed() != sketched.requests.completed() ||
        r.rejected != sketched.rejected ||
        iterations(r) != iterations(sketched)) {
        out.fail(0, "exact-records pass ran a different schedule");
    }
    constexpr double kTolerance = 2 * 0.005;  // QuantileSketch's alpha
    auto near = [&](double a, double b) {
        return std::abs(a - b) <= kTolerance * std::abs(b);
    };
    for (const auto& [s, x] :
         {std::pair{sketched.requests.ttftStats(), r.requests.ttftStats()},
          std::pair{sketched.requests.tbtStats(), r.requests.tbtStats()}}) {
        if (!near(s.p50, x.p50) || !near(s.p90, x.p90) ||
            !near(s.p99, x.p99))
            out.fail(0, "sketch percentiles off the exact records: " +
                            std::string(line));
    }
}

/** A streamed workload: one cluster run of passArrivals per pass. */
struct StreamSpec {
    std::string name;
    core::ClusterDesign design;
    core::SimConfig config;
    std::size_t passArrivals = 0;
    /** A fresh stream over the seed's inputs (identical every pass). */
    std::function<std::unique_ptr<workload::TraceStream>()> makeStream;
};

Outcome
runStreamWorkload(const Options& options, const StreamSpec& spec)
{
    Outcome out;
    const auto run_start = Clock::now();
    const model::LlmConfig llm = model::llama2_70b();
    SetupSampler setup([&] {
        core::Cluster cluster(llm, spec.design, spec.config);
    });
    setup.sample(0.0, kSetupSamples);

    // The first pass is always untraced and is the reference digest.
    OpLedger untraced;
    OpLedger traced;
    std::vector<LayerSheet> layer_samples;
    std::string first_digest;
    core::RunReport first_report;
    const std::string pass_rates =
        runPasses(options, run_start, 2, &setup, [&](int i, bool is_traced) {
            auto inner = spec.makeStream();
            PassStats pass = runPass(llm, spec.design, spec.config, *inner,
                                     spec.passArrivals, is_traced);
            setup.add(pass.setupMs);

            const std::uint64_t ops = pass.opMs.size();
            out.attempted += ops;
            const core::RunReport& r = pass.report;
            const std::string digest = reportDigest(pass);
            if (r.requests.completed() + r.rejected != r.submitted ||
                r.submitted != spec.passArrivals) {
                out.fail(ops, "pass " + std::to_string(i) +
                                  ": completed + rejected != submitted (" +
                                  digest + ")");
            } else if (i == 0) {
                first_digest = digest;
            } else if (digest != first_digest) {
                out.fail(ops, "pass " + std::to_string(i) +
                                  " differs from pass 0: " + digest);
            }

            (is_traced ? traced : untraced)
                .addPass(pass.opMs, pass.opWallMs, pass.opCpuMs);
            if (is_traced) {
                addLayerSamples(pass,
                                static_cast<double>(pass.arrivals) /
                                    static_cast<double>(kOpArrivals),
                                options.seed, layer_samples);
            }
            if (i == 0)
                first_report = std::move(pass.report);
            return static_cast<double>(ops) * 1000.0 / pass.opWallMs;
        });

    out.digest.push_back("digest " + spec.name + " seed=" +
                         std::to_string(options.seed) + " " + first_digest);
    out.digest.push_back(pass_rates);
    out.digest.push_back(setup.summary());
    if (options.trace) {
        LayerSheet sheet = medianSheet(layer_samples);
        sheet.traceOverheadPct =
            overheadPct(untraced.opsPerS(), traced.opsPerS());
        emitLayers(out, sheet);
        return out;
    }

    EndToEnd e;
    e.peakRssMb = processPeakRssMb();
    const core::RunReport* simulated = &first_report;
    PassStats exact;
    if (spec.config.sketchLatencies) {
        // A sketch holds a percentile to within one bucket (about 1%),
        // and one bucket can hold the p99 of most seeds. The simulated
        // metrics come from an untimed pass with exact records, run
        // after peak_rss_mb is read; the sketch percentiles must agree
        // with it to within the sketch's error.
        core::SimConfig config = spec.config;
        config.sketchLatencies = false;
        auto inner = spec.makeStream();
        exact = runPass(llm, spec.design, config, *inner, spec.passArrivals,
                        false);
        checkSketchAgainstExact(first_report, exact, out);
        simulated = &exact.report;
    }
    const auto ttft = simulated->requests.ttftStats();
    e.opsPerS = untraced.opsPerS();
    e.opP50Ms = untraced.opP50Ms();
    e.opP90Ms = untraced.opP90Ms();
    e.cpuMsPerOp = untraced.cpuMsPerOp();
    e.setupS = setup.seconds();
    e.simTtftP99Ms = ttft.p99;
    e.simTbtP99Ms = simulated->requests.tbtStats().p99;
    e.clientTtftP50Ms = ttft.p50;
    e.clientTtftP90Ms = ttft.p90;
    emitEndToEnd(out, e);
    return out;
}

}  // namespace

Outcome
runFleet2k(const Options& options)
{
    constexpr int kMachines = 2000;
    constexpr double kRpsPerMachine = 1.4;
    StreamSpec spec;
    spec.name = "fleet_2k";
    // bench_scale's shape: Splitwise-HH at the coding 7:1 split.
    const int token = kMachines / 8;
    spec.design = provision::makeDesign(provision::DesignKind::kSplitwiseHH,
                                        kMachines - token, token);
    spec.config.cls.routing = core::RoutingPolicy::kRandom;
    spec.config.cls.routingSeed = options.seed;
    spec.config.sketchLatencies = true;
    spec.passArrivals = 100'000;
    const auto interval = static_cast<sim::TimeUs>(
        sim::secondsToUs(1.0) / (kRpsPerMachine * kMachines));
    const std::uint64_t seed = options.seed;
    const std::size_t count = spec.passArrivals;
    spec.makeStream = [seed, count, interval] {
        workload::TraceGenerator gen(workload::coding(), seed);
        return std::unique_ptr<workload::TraceStream>(
            gen.streamUniform(count, interval));
    };
    return runStreamWorkload(options, spec);
}

Outcome
runChatPrefix100(const Options& options)
{
    StreamSpec spec;
    spec.name = "chat_prefix_100";
    spec.design = core::splitwiseHH(50, 50);
    workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
    mt.thinkTimeMeanS = 5.0;
    spec.config.policy.kind = sched::PolicyKind::kPrefixCache;
    spec.config.policy.maxContextTokens = mt.maxContextTokens;
    spec.passArrivals = 100'000;
    const std::uint64_t seed = options.seed;
    spec.makeStream = [seed, mt] {
        // The horizon outlasts any pass; MeteredStream ends it.
        workload::MultiTurnTraceGenerator gen(mt, seed);
        return std::unique_ptr<workload::TraceStream>(
            gen.stream(30.0, sim::secondsToUs(1e5)));
    };
    return runStreamWorkload(options, spec);
}

Outcome
runDesignSweep(const Options& options)
{
    using provision::DesignKind;
    const std::vector<int> prompt_counts = {7, 8, 9, 10, 11, 13, 17, 21, 27};
    const std::vector<int> token_counts = {1, 2, 3, 4, 6};
    constexpr double kRps = 70.0;
    constexpr int kPooledMinPrompt = 13;
    constexpr int kPooledMinToken = 3;

    provision::ProvisionerOptions popts;
    popts.traceDuration = sim::secondsToUs(25);
    popts.seed = options.seed;
    popts.jobs = 1;
    popts.captureReports = true;
    const model::LlmConfig llm = model::llama2_70b();

    std::vector<std::pair<int, int>> grid;
    for (int np : prompt_counts) {
        for (int nt : token_counts)
            grid.emplace_back(np, nt);
    }

    // Set-up: the provisioner plus one cluster per grid cell, the
    // construction work every sweep repeats.
    Outcome out;
    const auto run_start = Clock::now();
    SetupSampler setup([&] {
        provision::Provisioner probe(llm, workload::coding(), popts);
        for (const auto& [np, nt] : grid) {
            core::Cluster cluster(
                llm, provision::makeDesign(DesignKind::kSplitwiseHH, np, nt),
                probe.options().simConfig);
        }
    });
    setup.sample(0.0, kSetupSamples);
    const provision::Provisioner prov(llm, workload::coding(), popts);
    std::vector<provision::SweepCell> reference;

    // One cell through the timed sweep() path: the untraced op.
    auto sweep_cell = [&](std::size_t c, OpLedger& ledger) {
        const auto [np, nt] = grid[c];
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        auto cells = prov.sweep(DesignKind::kSplitwiseHH, {np}, {nt}, kRps);
        const double ms = msSince(t0);
        ledger.add(ms, (processCpuSeconds() - cpu0) * 1000.0);
        ++out.attempted;
        const provision::SweepCell& cell = cells.at(0);
        const std::string where =
            "cell " + std::to_string(np) + "P+" + std::to_string(nt) + "T";
        if (cell.error || cell.reportJson.empty()) {
            out.fail(1, where + " errored: " + cell.errorMessage);
        } else if (reference.size() <= c) {
            reference.push_back(cell);
        } else if (cell.pass != reference[c].pass ||
                   cell.costPerHour != reference[c].costPerHour ||
                   cell.reportJson != reference[c].reportJson) {
            out.fail(1, where + " outcome differs across passes");
        }
    };

    // The same cell with evaluate()'s steps called one by one.
    std::vector<LayerSheet> layer_samples;
    std::vector<std::uint64_t> events(grid.size(), 0);
    metrics::RequestMetrics pooled;
    auto stepwise_cell = [&](std::size_t c, OpLedger* ledger) {
        const auto [np, nt] = grid[c];
        const auto t0 = Clock::now();
        const double cpu0 = processCpuSeconds();
        workload::TraceGenerator gen(workload::coding(), popts.seed);
        const workload::Trace trace = gen.generate(kRps, popts.traceDuration);
        const double trace_ms = msSince(t0);
        workload::VectorTraceStream inner(trace);
        PassStats pass = runPass(
            llm, provision::makeDesign(DesignKind::kSplitwiseHH, np, nt),
            popts.simConfig, inner, trace.size(), ledger != nullptr);
        auto t = Clock::now();
        const core::SloReport slo =
            core::SloChecker(llm).evaluate(pass.report.requests, popts.slos);
        const double slo_ms = msSince(t);
        t = Clock::now();
        const std::string json = core::reportToJson(pass.report, &slo);
        const double json_ms = msSince(t);
        const double cell_ms = msSince(t0);
        events[c] = pass.events;
        if (!ledger && np >= kPooledMinPrompt && nt >= kPooledMinToken)
            pooled.merge(pass.report.requests);
        if (reference.size() > c && json != reference[c].reportJson) {
            out.fail(1, "cell " + std::to_string(np) + "P+" +
                            std::to_string(nt) +
                            "T: stepwise report differs from sweep()");
        }
        if (!ledger)
            return;
        ++out.attempted;
        ledger->add(cell_ms, (processCpuSeconds() - cpu0) * 1000.0);
        addLayerSamples(pass, 1.0, options.seed, layer_samples);
        LayerSheet& l = layer_samples.back();
        l.traceMs = trace_ms;
        l.sloMs = slo_ms;
        l.jsonMs = json_ms;
        l.cellMs = cell_ms;
    };

    OpLedger untraced;
    OpLedger traced;
    const std::string pass_rates =
        runPasses(options, run_start, 1, &setup, [&](int, bool is_traced) {
            for (std::size_t c = 0; c < grid.size(); ++c) {
                if (is_traced)
                    stepwise_cell(c, &traced);
                else
                    sweep_cell(c, untraced);
            }
            OpLedger& ledger = is_traced ? traced : untraced;
            ledger.endPass();
            return ledger.lastPassOpsPerS();
        });
    if (!options.trace) {
        // Untimed cross-check of every cell through the stepwise path;
        // also counts the events for the digest.
        for (std::size_t c = 0; c < grid.size(); ++c)
            stepwise_cell(c, nullptr);
    }

    // Digest: the reference pass, parsed back from its report JSON.
    int passing = 0;
    std::uint64_t completed = 0;
    std::uint64_t iters = 0;
    const provision::SweepCell* best = nullptr;
    std::vector<core::JsonValue> parsed;
    parsed.reserve(reference.size());
    for (const auto& cell : reference) {
        parsed.push_back(core::JsonValue::parse(cell.reportJson));
        const core::JsonValue& j = parsed.back();
        completed += static_cast<std::uint64_t>(
            j.at("requests").at("completed").asInt());
        iters += static_cast<std::uint64_t>(
            j.at("pools").at("prompt").at("iterations").asInt() +
            j.at("pools").at("token").at("iterations").asInt());
        if (cell.pass) {
            ++passing;
            if (!best || cell.costPerHour < best->costPerHour)
                best = &cell;
        }
    }
    char line[512];
    std::snprintf(line, sizeof line,
                  "digest design_sweep seed=%llu cells=%zu passing=%d "
                  "cost_optimal=%s completed=%llu iterations=%llu "
                  "events=%llu",
                  static_cast<unsigned long long>(options.seed),
                  reference.size(), passing,
                  best ? (std::to_string(best->numPrompt) + "P+" +
                          std::to_string(best->numToken) + "T@$" +
                          std::to_string(static_cast<int>(best->costPerHour)) +
                          "/hr")
                             .c_str()
                       : "none",
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(iters),
                  static_cast<unsigned long long>(std::accumulate(
                      events.begin(), events.end(), std::uint64_t{0})));
    out.digest.push_back(line);
    out.digest.push_back(pass_rates);
    out.digest.push_back(setup.summary());

    if (options.trace) {
        // provision.cell_ms is the timed sweep() cell; the stepwise
        // cells must add up to about the same.
        LayerSheet sheet = medianSheet(layer_samples);
        std::vector<double> step_ms;
        for (const auto& s : layer_samples)
            step_ms.push_back(s.cellMs);
        sheet.cellMs = untraced.opP50Ms();
        std::snprintf(line, sizeof line,
                      "steps: stepwise cell p50 %.3f ms vs sweep() cell p50 "
                      "%.3f ms",
                      median(step_ms), sheet.cellMs);
        out.digest.push_back(line);
        sheet.traceOverheadPct =
            overheadPct(untraced.opsPerS(), traced.opsPerS());
        emitLayers(out, sheet);
        return out;
    }

    EndToEnd e;
    e.opsPerS = untraced.opsPerS();
    e.opP50Ms = untraced.opP50Ms();
    e.opP90Ms = untraced.opP90Ms();
    e.cpuMsPerOp = untraced.cpuMsPerOp();
    e.peakRssMb = processPeakRssMb();
    e.setupS = setup.seconds();
    // Simulated latencies pooled over every request of a fixed block
    // of cells, those with at least 13 prompt and 3 token machines.
    // The block does not change with which cells meet the SLOs at a
    // seed, and holds no overloaded cell to swamp the tail.
    const auto ttft = pooled.ttftStats();
    e.simTtftP99Ms = ttft.p99;
    e.simTbtP99Ms = pooled.tbtStats().p99;
    e.clientTtftP50Ms = ttft.p50;
    e.clientTtftP90Ms = ttft.p90;
    emitEndToEnd(out, e);
    return out;
}

}  // namespace perfbench
