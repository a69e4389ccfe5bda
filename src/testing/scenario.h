#ifndef SPLITWISE_TESTING_SCENARIO_H_
#define SPLITWISE_TESTING_SCENARIO_H_

/**
 * @file
 * Self-contained DST scenarios: everything one fuzzed run needs -
 * the cluster design, the simulation config knobs under test, the
 * explicit request trace, the fault plan, and an optional seeded
 * bug - in a single value that serializes to `.scenario.json`.
 *
 * Scenarios embed the generated trace rather than a (workload, rps,
 * seed) recipe so the shrinker can remove individual requests and
 * the resulting file replays byte-deterministically forever, even if
 * trace generation changes. See DESIGN.md "DST scenario format".
 */

#include <cstdint>
#include <string>

#include "control/autoscaler.h"
#include "core/cluster.h"
#include "core/fault_plan.h"
#include "core/json.h"
#include "provision/provisioner.h"
#include "sched/policy.h"
#include "testing/invariants.h"
#include "workload/trace.h"

namespace splitwise::testing {

/** Deliberately plantable bugs, for validating the DST harness. */
enum class BugKind {
    kNone,
    /**
     * Allocate KV blocks under a phantom request id on one machine
     * at a fixed time - the time-triggered leak, independent of the
     * workload.
     */
    kOrphanKvBlock,
    /**
     * When the first transferred request starts decoding, allocate a
     * phantom copy of its KV on the prompt machine - modeling a
     * source-side copy the transfer path failed to release. Request-
     * dependent, so shrinking it is meaningful: the minimal repro
     * must keep at least one cross-machine request.
     */
    kLeakPromptKv,
};

const char* bugKindName(BugKind kind);

/** Where and when the seeded bug fires. */
struct BugPlan {
    BugKind kind = BugKind::kNone;
    /** Trigger time (kOrphanKvBlock). */
    sim::TimeUs atUs = 0;
    /** Target machine id (kOrphanKvBlock). */
    int machineId = 0;
};

/** One self-contained fuzzed run. */
struct Scenario {
    std::string name;
    /** Generating seed; provenance only, replay never re-draws. */
    std::uint64_t seed = 0;

    provision::DesignKind designKind = provision::DesignKind::kSplitwiseHH;
    int numPrompt = 1;
    int numToken = 1;

    core::RoutingPolicy routing = core::RoutingPolicy::kJsq;
    std::uint64_t routingSeed = 1;
    std::int64_t shedQueuedTokensBound = 0;
    std::int64_t promptChunkTokens = 0;
    bool kvCheckpointing = false;
    bool usePiecewisePerfModel = false;
    engine::KvRetryPolicy kvRetry;
    /** Record lifecycle spans so span-balance invariants are live. */
    bool traceEnabled = false;
    /**
     * Run an Autoscaler (dstAutoscalerConfig) over the scenario so
     * controller actions race faults and the checker's control-plane
     * invariants are live. Splitwise designs only; ignored for
     * baselines.
     */
    bool autoscale = false;
    /**
     * Scheduling policy under test. kPrefixCache seeds run multi-turn
     * session traces through the prefix-cache plug-in so its
     * refcount/accounting invariants race faults and evictions.
     */
    sched::PolicyKind policy = sched::PolicyKind::kDefault;
    /**
     * Context cap handed to the prefix policy's cache-key logic.
     * Small DST caps force truncation paths that production caps
     * would never reach within a few simulated seconds.
     */
    std::int64_t policyMaxContextTokens = workload::kDefaultMaxContextTokens;

    workload::Trace requests;
    core::FaultPlan faults;
    BugPlan bug;

    /**
     * Runtime-only span-tracking override (never serialized, so
     * pinned repro files replay unchanged): 0 = auto (span tracking
     * follows traceEnabled), 1 = force on, -1 = force off. The soak
     * driver's --spans flag sets this.
     */
    int spanOverride = 0;

    /**
     * Runtime-only ingestion-path selector (never serialized): when
     * true the run feeds the trace through Cluster::run(TraceStream&)
     * instead of the materialized Trace overload. Both paths must
     * produce byte-identical outcomes; the fuzzer flips this on a
     * fraction of seeds so DST continuously proves it.
     */
    bool streamIngest = false;

    int machines() const { return numPrompt + numToken; }

    /** Whether a run of this scenario tracks request spans. */
    bool
    spansEnabled() const
    {
        return spanOverride > 0 || (spanOverride == 0 && traceEnabled);
    }
};

/** Scenario <-> JSON (format `splitwise-dst-scenario-v1`). */
core::JsonValue scenarioToJson(const Scenario& scenario);
Scenario scenarioFromJson(const core::JsonValue& doc);

/** File forms of the above; fatal() on I/O or format errors. */
void writeScenarioFile(const Scenario& scenario, const std::string& path);
Scenario loadScenarioFile(const std::string& path);

/** The ClusterDesign a scenario describes. */
core::ClusterDesign scenarioDesign(const Scenario& scenario);

/** The SimConfig a scenario describes. */
core::SimConfig scenarioSimConfig(const Scenario& scenario);

/**
 * Controller tuning for DST runs: cadence and cooldowns compressed
 * to fractions of a second and thresholds lowered so fuzzed traces
 * a few seconds long still exercise scale/flex/brownout/power-cap
 * paths. The power budget is set just below the design's provisioned
 * draw so cap placement is always active.
 */
control::AutoscalerConfig dstAutoscalerConfig(const core::ClusterDesign& design);

/** What one scenario run produced. */
struct ScenarioOutcome {
    bool violated = false;
    /** Catalog name of the violated invariant ("" when clean). */
    std::string invariant;
    sim::TimeUs violationTime = -1;
    std::string detail;

    /** Report digest of a clean run (zeros after a violation). */
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t restarts = 0;
    std::uint64_t transfers = 0;

    /**
     * Canonical JSON of the whole outcome, embedding the full run
     * report on clean runs. Byte-identical outcomes are the
     * determinism oracle: the same scenario must produce the same
     * string on every replay, across thread counts.
     */
    std::string outcomeJson;

    /**
     * Flight-recorder dump (recent + live span timelines) captured at
     * the moment of a violation; empty on clean runs or when the run
     * tracked no spans. The soak driver writes it next to the shrunk
     * reproducer so the last moments before the violation are
     * reconstructable.
     */
    std::string flightRecorderJson;
};

/**
 * Span flight-recorder dump: @p spans' recent completed timelines
 * plus every open timeline held in @p pool, in request-id order.
 */
std::string flightRecorderJson(const telemetry::SpanTracker& spans,
                               const engine::RequestPool& pool);

/**
 * Build the cluster, apply the fault plan, arm the seeded bug and
 * the invariant checker, run to completion, and final-check.
 * Violations (including liveness fatals from Cluster::run) are
 * caught and reported in the outcome, not thrown.
 */
ScenarioOutcome runScenario(const Scenario& scenario,
                            const InvariantOptions& options = {});

}  // namespace splitwise::testing

#endif  // SPLITWISE_TESTING_SCENARIO_H_
