/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot kernels:
 * event queue operations, performance-model evaluation, the paged
 * block manager, piecewise interpolation, and end-to-end simulated
 * cluster throughput (simulated-seconds per wall-second).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cluster.h"
#include "core/designs.h"
#include "engine/block_manager.h"
#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "model/perf_model.h"
#include "model/piecewise.h"
#include "model/piecewise_perf_model.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace {

using namespace splitwise;

void
BM_EventQueueScheduleAndPop(benchmark::State& state)
{
    sim::EventQueue queue;
    std::int64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            queue.post(t + (i * 37) % 1000, [] {});
        while (!queue.empty())
            benchmark::DoNotOptimize(queue.pop());
        t += 1000;
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void
BM_AnalyticalPerfModelIteration(benchmark::State& state)
{
    const model::AnalyticalPerfModel perf(model::llama2_70b(),
                                          hw::dgxH100());
    model::IterationShape shape;
    shape.promptTokens = 1500;
    shape.promptRequests = 2;
    shape.tokenRequests = 32;
    shape.contextTokens = 32 * 1200;
    for (auto _ : state)
        benchmark::DoNotOptimize(perf.iterationTime(shape));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticalPerfModelIteration);

void
BM_PiecewisePerfModelIteration(benchmark::State& state)
{
    const model::AnalyticalPerfModel reference(model::llama2_70b(),
                                               hw::dgxH100());
    const auto fitted = model::PiecewiseLinearPerfModel::fit(reference);
    model::IterationShape shape;
    shape.promptTokens = 1500;
    shape.promptRequests = 2;
    shape.tokenRequests = 32;
    shape.contextTokens = 32 * 1200;
    for (auto _ : state)
        benchmark::DoNotOptimize(fitted->iterationTime(shape));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiecewisePerfModelIteration);

void
BM_BlockManagerChurn(benchmark::State& state)
{
    engine::BlockManager bm(1 << 20, 16);
    std::vector<engine::LiveRequest> requests(32);
    for (auto _ : state) {
        for (int i = 0; i < 32; ++i)
            benchmark::DoNotOptimize(bm.allocate(requests[i], 1000 + i));
        for (int i = 0; i < 32; ++i)
            benchmark::DoNotOptimize(bm.extend(requests[i], 1100 + i));
        for (int i = 0; i < 32; ++i)
            bm.release(requests[i]);
    }
    state.SetItemsProcessed(state.iterations() * 96);
}
BENCHMARK(BM_BlockManagerChurn);

void
BM_PiecewiseLinearEval(benchmark::State& state)
{
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 64; ++i) {
        xs.push_back(i * 256.0);
        ys.push_back(i * 3.0 + 1);
    }
    const model::PiecewiseLinear f(xs, ys);
    double x = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(f(x));
        x += 97.0;
        if (x > 16000.0)
            x = 0.0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiecewiseLinearEval);

void
BM_ClusterSimulation(benchmark::State& state)
{
    const double rps = static_cast<double>(state.range(0));
    workload::TraceGenerator gen(workload::conversation(), 42);
    const auto trace = gen.generate(rps, sim::secondsToUs(10));
    for (auto _ : state) {
        core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
        benchmark::DoNotOptimize(cluster.run(trace));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
    state.counters["requests"] = static_cast<double>(trace.size());
}
BENCHMARK(BM_ClusterSimulation)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_ClusterSimulationTelemetry(benchmark::State& state)
{
    // Same run as BM_ClusterSimulation/8 with every telemetry stream
    // on; the delta against it prices full tracing plus sampling.
    workload::TraceGenerator gen(workload::conversation(), 42);
    const auto trace = gen.generate(8.0, sim::secondsToUs(10));
    core::SimConfig config;
    config.telemetry.traceEnabled = true;
    config.telemetry.sampleIntervalUs = sim::msToUs(100.0);
    for (auto _ : state) {
        core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2),
                              config);
        benchmark::DoNotOptimize(cluster.run(trace));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ClusterSimulationTelemetry)->Unit(benchmark::kMillisecond);

}  // namespace

int
main(int argc, char** argv)
{
    // No shared bench flags; google-benchmark's own --benchmark_*
    // flags pass through.
    auto parser = splitwise::bench::benchParser(
        "bench_micro",
        "google-benchmark microbenchmarks for the simulator's hot "
        "kernels");
    parser.passthroughPrefix("--benchmark_");
    parser.parse(argc, argv);

    std::vector<std::string> forwarded;
    forwarded.emplace_back(argv[0]);
    for (const auto& arg : parser.passthrough())
        forwarded.push_back(arg);
    std::vector<char*> fwd_argv;
    fwd_argv.reserve(forwarded.size());
    for (auto& arg : forwarded)
        fwd_argv.push_back(arg.data());
    int fwd_argc = static_cast<int>(fwd_argv.size());
    benchmark::Initialize(&fwd_argc, fwd_argv.data());
    if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd_argv.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
