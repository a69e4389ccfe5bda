/**
 * @file
 * Streamed-vs-materialized equivalence gate: a cluster fed from a
 * pull-based TraceStream must produce a report byte-identical to the
 * same cluster run over the drained, materialized trace - per seed,
 * at every job count, and under a fault storm. Runs under the
 * `determinism` ctest label next to the golden-replay gate: the
 * streaming ingestion path can never silently diverge from the
 * vector path CI already pins.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fault_plan.h"
#include "core/json.h"
#include "core/report_io.h"
#include "core/run.h"
#include "model/llm_config.h"
#include "provision/provisioner.h"
#include "sched/policy.h"
#include "workload/multi_turn.h"
#include "workload/trace_gen.h"
#include "workload/trace_stream.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

const std::vector<std::uint64_t> kSeeds = {7, 42, 2024};

RunOptions
baseOptions()
{
    RunOptions options;
    options.llm = model::llama2_70b();
    options.design =
        provision::makeDesign(provision::DesignKind::kSplitwiseHH, 3, 2);
    options.sim.cls.routingSeed = 99;
    return options;
}

workload::Trace
makeTrace(std::uint64_t seed)
{
    workload::TraceGenerator gen(workload::coding(), seed);
    return gen.generate(12.0, sim::secondsToUs(20.0));
}

/** reportToJson of the materialized path at a given job count. */
std::string
materializedJson(const RunOptions& base, const workload::Trace& trace,
                 int jobs)
{
    RunOptions options = base;
    options.traces = {trace};
    options.jobs = jobs;
    const auto reports = runMany(options);
    return reportToJson(reports.front());
}

/** reportToJson of the same workload pulled through runStream. */
std::string
streamedJson(const RunOptions& base, const workload::Trace& trace)
{
    RunOptions options = base;
    workload::VectorTraceStream stream(trace);
    return reportToJson(runStream(options, stream));
}

/**
 * reportToJson of the fully streaming path: the trace is never
 * materialized at all - requests are sampled from the generator one
 * arrival at a time.
 */
std::string
generatorStreamedJson(const RunOptions& base, std::uint64_t seed)
{
    RunOptions options = base;
    workload::TraceGenerator gen(workload::coding(), seed);
    auto stream = gen.streamPoisson(12.0, sim::secondsToUs(20.0));
    return reportToJson(runStream(options, *stream));
}

TEST(StreamingEquivalenceTest, ByteIdenticalAcrossPathsAndJobCounts)
{
    for (const std::uint64_t seed : kSeeds) {
        const RunOptions base = baseOptions();
        const workload::Trace trace = makeTrace(seed);
        ASSERT_FALSE(trace.empty()) << "seed " << seed;

        const std::string serial = materializedJson(base, trace, 1);
        const std::string parallel = materializedJson(base, trace, 8);
        const std::string vector_streamed = streamedJson(base, trace);
        const std::string gen_streamed = generatorStreamedJson(base, seed);

        EXPECT_EQ(serial, parallel) << "seed " << seed;
        EXPECT_EQ(serial, vector_streamed) << "seed " << seed;
        EXPECT_EQ(serial, gen_streamed) << "seed " << seed;
    }
}

TEST(StreamingEquivalenceTest, ByteIdenticalUnderFaultStorm)
{
    for (const std::uint64_t seed : kSeeds) {
        RunOptions base = baseOptions();
        FaultStormConfig storm;
        storm.numMachines = base.design.numPrompt + base.design.numToken;
        storm.horizonUs = sim::secondsToUs(20.0);
        base.faults = makeFaultStorm(storm, seed);

        const workload::Trace trace = makeTrace(seed);
        const std::string serial = materializedJson(base, trace, 1);
        const std::string parallel = materializedJson(base, trace, 8);
        const std::string vector_streamed = streamedJson(base, trace);
        const std::string gen_streamed = generatorStreamedJson(base, seed);

        EXPECT_EQ(serial, parallel) << "seed " << seed;
        EXPECT_EQ(serial, vector_streamed) << "seed " << seed;
        EXPECT_EQ(serial, gen_streamed) << "seed " << seed;
    }
}

TEST(StreamingEquivalenceTest, MultiTurnSessionsByteIdenticalAcrossPolicies)
{
    // The full matrix the prefix-cache PR adds: materialized vs
    // streamed (via the MultiTurnTraceGenerator stream twin) x jobs
    // 1 vs 8 x policy default vs prefix. Every cell of a policy must
    // produce the same bytes; the two policies must not.
    workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
    mt.thinkTimeMeanS = 1.0;
    mt.maxContextTokens = 4096;

    for (const std::uint64_t seed : kSeeds) {
        std::string default_json;
        std::string prefix_json;
        for (const auto policy : {sched::PolicyKind::kDefault,
                                  sched::PolicyKind::kPrefixCache}) {
            RunOptions base = baseOptions();
            base.sim.policy.kind = policy;
            base.sim.policy.maxContextTokens = mt.maxContextTokens;

            workload::MultiTurnTraceGenerator gen(mt, seed);
            const workload::Trace trace =
                gen.generate(2.0, sim::secondsToUs(20.0));
            ASSERT_FALSE(trace.empty()) << "seed " << seed;

            const std::string serial = materializedJson(base, trace, 1);
            const std::string parallel = materializedJson(base, trace, 8);
            const std::string vector_streamed = streamedJson(base, trace);

            workload::MultiTurnTraceGenerator twin(mt, seed);
            auto stream = twin.stream(2.0, sim::secondsToUs(20.0));
            const std::string gen_streamed =
                reportToJson(runStream(base, *stream));

            EXPECT_EQ(serial, parallel) << "seed " << seed;
            EXPECT_EQ(serial, vector_streamed) << "seed " << seed;
            EXPECT_EQ(serial, gen_streamed) << "seed " << seed;

            const JsonValue doc = JsonValue::parse(serial);
            if (policy == sched::PolicyKind::kDefault) {
                default_json = serial;
                EXPECT_FALSE(doc.has("prefix_cache")) << "seed " << seed;
            } else {
                prefix_json = serial;
                ASSERT_TRUE(doc.has("prefix_cache")) << "seed " << seed;
                const JsonValue& prefix = doc.at("prefix_cache");
                EXPECT_GT(prefix.at("hits").asInt(), 0) << "seed " << seed;
                EXPECT_GT(prefix.at("hit_tokens").asInt(), 0)
                    << "seed " << seed;
            }
        }
        // Same workload, different policy: the reports must diverge
        // (the prefix policy actually changed the simulation).
        EXPECT_NE(default_json, prefix_json) << "seed " << seed;
    }
}

TEST(StreamingEquivalenceTest, SketchModeIsAlsoPathIndependent)
{
    // The scale bench's bounded-memory configuration (sketched
    // latencies + recycling) must be equivalent across paths too.
    for (const std::uint64_t seed : kSeeds) {
        RunOptions base = baseOptions();
        base.sim.sketchLatencies = true;

        const workload::Trace trace = makeTrace(seed);
        const std::string serial = materializedJson(base, trace, 1);
        const std::string vector_streamed = streamedJson(base, trace);
        const std::string gen_streamed = generatorStreamedJson(base, seed);

        EXPECT_EQ(serial, vector_streamed) << "seed " << seed;
        EXPECT_EQ(serial, gen_streamed) << "seed " << seed;
    }
}

}  // namespace
}  // namespace splitwise::core
