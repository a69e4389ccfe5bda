/**
 * @file
 * Regenerates paper Fig. 5: (a) TTFT vs. prompt size, (b) TBT vs.
 * token batch size, and (c) E2E latency percentiles on the
 * production-like traces, for BLOOM-176B and Llama2-70B on DGX-H100.
 *
 * Section (d) runs a full Splitwise-HH cluster with span tracking on
 * and prints the per-phase latency attribution, pinning the gap
 * between Fig. 5's uncontended model latencies and cluster-observed
 * latencies on queueing vs. KV transfer. `--breakdown-out=PATH`
 * additionally writes the attribution JSON (with exemplar timelines).
 */

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "model/perf_model.h"

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_fig05_latency",
        "Paper Fig. 5: TTFT/TBT/E2E latency models",
        bench::kSinks | bench::kPolicy | bench::kShort);
    using metrics::Table;

    const model::AnalyticalPerfModel llama(model::llama2_70b(),
                                           hw::dgxH100());
    const model::AnalyticalPerfModel bloom(model::bloom_176b(),
                                           hw::dgxH100());

    bench::banner("Fig. 5a: TTFT by prompt size (DGX-H100)");
    Table ttft({"prompt tokens", "Llama2-70B TTFT (ms)",
                "BLOOM-176B TTFT (ms)"});
    for (std::int64_t p : {128, 256, 512, 1024, 1500, 2048, 3072, 4096}) {
        ttft.addRow({std::to_string(p),
                     Table::fmt(sim::usToMs(llama.promptTime(p, 1))),
                     Table::fmt(sim::usToMs(bloom.promptTime(p, 1)))});
    }
    ttft.print();
    std::printf("Paper: near-linear growth; Llama ~95 ms at 1500 tokens\n");

    bench::banner("Fig. 5b: TBT by token batch size (context 1200/seq)");
    Table tbt({"batch size", "Llama2-70B TBT (ms)", "BLOOM-176B TBT (ms)"});
    for (int b : {1, 2, 4, 8, 16, 32, 64}) {
        tbt.addRow({std::to_string(b),
                    Table::fmt(sim::usToMs(llama.tokenTime(b, 1200LL * b))),
                    Table::fmt(sim::usToMs(bloom.tokenTime(b, 1200LL * b)))});
    }
    tbt.print();
    std::printf("Paper: batch 64 costs only ~2x the batch-1 TBT\n");

    bench::banner("Fig. 5c: E2E latency percentiles, no batching");
    Table e2e({"model", "trace", "p50 (s)", "p90 (s)", "p99 (s)"});
    for (const auto* w : {&workload::coding(), &workload::conversation()}) {
        struct Entry {
            const char* name;
            const model::AnalyticalPerfModel* perf;
        } models[] = {{"Llama2-70B", &llama}, {"BLOOM-176B", &bloom}};
        for (const auto& entry : models) {
            // Uncontended per-request E2E: one prompt pass plus one
            // decode iteration per output token.
            sim::Rng rng(11);
            metrics::Summary summary;
            for (int i = 0; i < 4000; ++i) {
                const auto prompt = w->promptTokens->sample(rng);
                const auto output = w->outputTokens->sample(rng);
                double ms = sim::usToMs(entry.perf->promptTime(prompt, 1));
                ms += static_cast<double>(output - 1) *
                      sim::usToMs(entry.perf->tokenTime(
                          1, prompt + output / 2));
                summary.add(ms);
            }
            e2e.addRow({entry.name, w->name,
                        Table::fmt(summary.p50() / 1e3),
                        Table::fmt(summary.p90() / 1e3),
                        Table::fmt(summary.p99() / 1e3)});
        }
    }
    e2e.print();
    std::printf("Paper: most E2E time is spent in the token phase"
                " (Insight III)\n");

    bench::banner("Fig. 5d: cluster-run latency attribution "
                  "(Splitwise-HH, coding)");
    {
        const bool short_run = bench::benchArgs().shortRun;
        // The attribution section is this bench's whole point, so
        // span tracking is always on.
        core::SimConfig config;
        config.telemetry.spanTracking = true;
        const auto design = bench::isoPowerDesign(
            provision::DesignKind::kSplitwiseHH, "coding");
        const auto trace = bench::makeTrace(workload::coding(), 60.0,
                                            short_run ? 20.0 : 60.0);
        const auto report = core::run(bench::cliRunOptions(
            model::llama2_70b(), design, trace, config));
        const telemetry::LatencyBreakdown& b = report.breakdown;
        Table phases({"phase", "requests", "total (s)", "share (%)",
                      "mean (ms)", "p50 (ms)", "p99 (ms)", "max (ms)"});
        for (const auto& p : b.phases) {
            if (p.requests == 0)
                continue;
            phases.addRow(
                {telemetry::spanPhaseName(p.phase),
                 std::to_string(p.requests),
                 Table::fmt(p.totalMs / 1e3),
                 Table::fmt(100.0 * p.totalMs / b.e2eTotalMs),
                 Table::fmt(p.meanMs), Table::fmt(p.p50Ms),
                 Table::fmt(p.p99Ms), Table::fmt(p.maxMs)});
        }
        phases.print();
        const double drift =
            std::abs(b.attributedTotalMs - b.e2eTotalMs) /
            (b.e2eTotalMs > 0.0 ? b.e2eTotalMs : 1.0);
        std::printf("attributed %.3f s of %.3f s E2E across %zu "
                    "requests (drift %.4f%%)\n",
                    b.attributedTotalMs / 1e3, b.e2eTotalMs / 1e3,
                    b.requests, 100.0 * drift);
        if (drift > 0.005) {
            sim::fatal("bench_fig05_latency: per-phase attribution "
                       "drifted more than 0.5% from E2E");
        }
        std::printf("The gap above Fig. 5c's uncontended E2E is the "
                    "queue/kv_transfer share.\n");
    }
    return 0;
}
