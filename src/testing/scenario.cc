#include "testing/scenario.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "core/report_io.h"
#include "sim/log.h"
#include "workload/trace_stream.h"

namespace splitwise::testing {

namespace {

constexpr const char* kFormatTag = "splitwise-dst-scenario-v1";

provision::DesignKind
designKindFromName(const std::string& name)
{
    for (const auto kind : provision::allDesignKinds()) {
        if (name == provision::designKindName(kind))
            return kind;
    }
    sim::fatal("scenario: unknown design kind \"" + name + "\"");
}

core::FaultKind
faultKindFromName(const std::string& name)
{
    for (const auto kind :
         {core::FaultKind::kCrash, core::FaultKind::kSlowdown,
          core::FaultKind::kLinkFault, core::FaultKind::kLinkDegrade}) {
        if (name == core::faultKindName(kind))
            return kind;
    }
    sim::fatal("scenario: unknown fault kind \"" + name + "\"");
}

BugKind
bugKindFromName(const std::string& name)
{
    for (const auto kind :
         {BugKind::kNone, BugKind::kOrphanKvBlock, BugKind::kLeakPromptKv}) {
        if (name == bugKindName(kind))
            return kind;
    }
    sim::fatal("scenario: unknown bug kind \"" + name + "\"");
}

}  // namespace

const char*
bugKindName(BugKind kind)
{
    switch (kind) {
      case BugKind::kNone: return "none";
      case BugKind::kOrphanKvBlock: return "orphan_kv_block";
      case BugKind::kLeakPromptKv: return "leak_prompt_kv";
    }
    return "?";
}

core::JsonValue
scenarioToJson(const Scenario& s)
{
    using core::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    doc.set("format", JsonValue(std::string(kFormatTag)));
    doc.set("name", JsonValue(s.name));
    doc.set("seed", JsonValue(static_cast<std::int64_t>(s.seed)));

    JsonValue design = JsonValue::makeObject();
    design.set("kind", JsonValue(std::string(
                           provision::designKindName(s.designKind))));
    design.set("prompt", JsonValue(static_cast<std::int64_t>(s.numPrompt)));
    design.set("token", JsonValue(static_cast<std::int64_t>(s.numToken)));
    doc.set("design", design);

    JsonValue config = JsonValue::makeObject();
    config.set("routing",
               JsonValue(std::string(
                   s.routing == core::RoutingPolicy::kJsq ? "jsq"
                                                          : "random")));
    config.set("routing_seed",
               JsonValue(static_cast<std::int64_t>(s.routingSeed)));
    config.set("shed_queued_tokens_bound",
               JsonValue(s.shedQueuedTokensBound));
    config.set("prompt_chunk_tokens", JsonValue(s.promptChunkTokens));
    config.set("kv_checkpointing", JsonValue(s.kvCheckpointing));
    config.set("use_piecewise_perf_model",
               JsonValue(s.usePiecewisePerfModel));
    config.set("trace_enabled", JsonValue(s.traceEnabled));
    config.set("autoscale", JsonValue(s.autoscale));
    config.set("policy", JsonValue(std::string(
                             sched::policyKindName(s.policy))));
    config.set("policy_max_context_tokens",
               JsonValue(s.policyMaxContextTokens));
    JsonValue retry = JsonValue::makeObject();
    retry.set("max_retries",
              JsonValue(static_cast<std::int64_t>(s.kvRetry.maxRetries)));
    retry.set("backoff_base_us", JsonValue(s.kvRetry.backoffBaseUs));
    retry.set("backoff_multiplier", JsonValue(s.kvRetry.backoffMultiplier));
    retry.set("timeout_us", JsonValue(s.kvRetry.timeoutUs));
    config.set("kv_retry", retry);
    doc.set("config", config);

    JsonValue requests = core::JsonValue::makeArray();
    for (const auto& r : s.requests) {
        JsonValue req = JsonValue::makeObject();
        req.set("id", JsonValue(static_cast<std::int64_t>(r.id)));
        req.set("arrival_us", JsonValue(r.arrival));
        req.set("prompt_tokens", JsonValue(r.promptTokens));
        req.set("output_tokens", JsonValue(r.outputTokens));
        req.set("priority", JsonValue(static_cast<std::int64_t>(r.priority)));
        req.set("session", JsonValue(static_cast<std::int64_t>(r.session)));
        req.set("turn", JsonValue(static_cast<std::int64_t>(r.turn)));
        requests.push(req);
    }
    doc.set("requests", requests);

    JsonValue faults = core::JsonValue::makeArray();
    for (const auto& f : s.faults.events) {
        JsonValue ev = JsonValue::makeObject();
        ev.set("kind",
               JsonValue(std::string(core::faultKindName(f.kind))));
        ev.set("machine", JsonValue(static_cast<std::int64_t>(f.machineId)));
        ev.set("at_us", JsonValue(f.at));
        ev.set("duration_us", JsonValue(f.durationUs));
        ev.set("factor", JsonValue(f.factor));
        faults.push(ev);
    }
    doc.set("faults", faults);

    JsonValue bug = JsonValue::makeObject();
    bug.set("kind", JsonValue(std::string(bugKindName(s.bug.kind))));
    bug.set("at_us", JsonValue(s.bug.atUs));
    bug.set("machine", JsonValue(static_cast<std::int64_t>(s.bug.machineId)));
    doc.set("bug", bug);
    return doc;
}

Scenario
scenarioFromJson(const core::JsonValue& doc)
{
    if (doc.at("format").asString() != kFormatTag) {
        sim::fatal("scenario: unsupported format \"" +
                   doc.at("format").asString() + "\"");
    }
    Scenario s;
    s.name = doc.at("name").asString();
    s.seed = static_cast<std::uint64_t>(doc.at("seed").asInt());

    const auto& design = doc.at("design");
    s.designKind = designKindFromName(design.at("kind").asString());
    s.numPrompt = static_cast<int>(design.at("prompt").asInt());
    s.numToken = static_cast<int>(design.at("token").asInt());

    const auto& config = doc.at("config");
    s.routing = config.at("routing").asString() == "jsq"
                    ? core::RoutingPolicy::kJsq
                    : core::RoutingPolicy::kRandom;
    s.routingSeed =
        static_cast<std::uint64_t>(config.at("routing_seed").asInt());
    s.shedQueuedTokensBound = config.at("shed_queued_tokens_bound").asInt();
    s.promptChunkTokens = config.at("prompt_chunk_tokens").asInt();
    s.kvCheckpointing = config.at("kv_checkpointing").asBool();
    s.usePiecewisePerfModel = config.at("use_piecewise_perf_model").asBool();
    s.traceEnabled = config.at("trace_enabled").asBool();
    // Absent in pre-control-plane scenario files; default off keeps
    // pinned repros replaying byte-identically.
    if (config.has("autoscale"))
        s.autoscale = config.at("autoscale").asBool();
    // Absent in pre-policy scenario files; the defaults replay them
    // exactly as the two-level scheduler always ran them.
    if (config.has("policy") &&
        !sched::parsePolicyKind(config.at("policy").asString(), &s.policy)) {
        sim::fatal("scenario: unknown policy \"" +
                   config.at("policy").asString() + "\"");
    }
    if (config.has("policy_max_context_tokens")) {
        s.policyMaxContextTokens =
            config.at("policy_max_context_tokens").asInt();
    }
    const auto& retry = config.at("kv_retry");
    s.kvRetry.maxRetries = static_cast<int>(retry.at("max_retries").asInt());
    s.kvRetry.backoffBaseUs = retry.at("backoff_base_us").asInt();
    s.kvRetry.backoffMultiplier = retry.at("backoff_multiplier").asNumber();
    s.kvRetry.timeoutUs = retry.at("timeout_us").asInt();

    for (const auto& req : doc.at("requests").items()) {
        workload::Request r;
        r.id = static_cast<std::uint64_t>(req.at("id").asInt());
        r.arrival = req.at("arrival_us").asInt();
        r.promptTokens = req.at("prompt_tokens").asInt();
        r.outputTokens = req.at("output_tokens").asInt();
        if (req.has("priority"))
            r.priority = static_cast<int>(req.at("priority").asInt());
        if (req.has("session")) {
            r.session = static_cast<std::uint64_t>(req.at("session").asInt());
            r.turn = static_cast<int>(req.at("turn").asInt());
        }
        s.requests.push_back(r);
    }

    for (const auto& ev : doc.at("faults").items()) {
        core::FaultEvent f;
        f.kind = faultKindFromName(ev.at("kind").asString());
        f.machineId = static_cast<int>(ev.at("machine").asInt());
        f.at = ev.at("at_us").asInt();
        f.durationUs = ev.at("duration_us").asInt();
        f.factor = ev.at("factor").asNumber();
        s.faults.add(f);
    }

    const auto& bug = doc.at("bug");
    s.bug.kind = bugKindFromName(bug.at("kind").asString());
    s.bug.atUs = bug.at("at_us").asInt();
    s.bug.machineId = static_cast<int>(bug.at("machine").asInt());
    return s;
}

void
writeScenarioFile(const Scenario& scenario, const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("writeScenarioFile: cannot open " + path);
    out << scenarioToJson(scenario).dump() << '\n';
}

Scenario
loadScenarioFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("loadScenarioFile: cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return scenarioFromJson(core::JsonValue::parse(text.str()));
}

core::ClusterDesign
scenarioDesign(const Scenario& scenario)
{
    return provision::makeDesign(scenario.designKind, scenario.numPrompt,
                                 scenario.numToken);
}

control::AutoscalerConfig
dstAutoscalerConfig(const core::ClusterDesign& design)
{
    control::AutoscalerConfig cfg;
    cfg.tickIntervalUs = sim::msToUs(200.0);
    cfg.slidingWindowUs = sim::secondsToUs(2.0);
    cfg.provisioningLeadUs = sim::msToUs(400.0);
    cfg.scaleCooldownUs = sim::msToUs(900.0);
    cfg.brownoutCooldownUs = sim::msToUs(400.0);
    cfg.ttftScaleUpSlowdown = 2.5;
    cfg.tbtScaleUpSlowdown = 2.0;
    cfg.queuedTokensHighPerMachine = 1500;
    cfg.kvHighUtilization = 0.6;
    cfg.ttftScaleDownSlowdown = 2.0;
    cfg.tbtScaleDownSlowdown = 2.0;
    cfg.queuedTokensLowPerMachine = 600;
    cfg.kvLowUtilization = 0.35;
    cfg.brownoutQueuedTokensPerMachine = 4000;
    cfg.brownoutTtftSlowdown = 5.0;
    cfg.powerBudgetWatts = design.footprint().powerWatts * 0.9;
    return cfg;
}

core::SimConfig
scenarioSimConfig(const Scenario& scenario)
{
    core::SimConfig config;
    config.cls.routing = scenario.routing;
    config.cls.routingSeed = scenario.routingSeed;
    config.cls.shedQueuedTokensBound = scenario.shedQueuedTokensBound;
    config.mls.promptChunkTokens = scenario.promptChunkTokens;
    config.kvCheckpointing = scenario.kvCheckpointing;
    config.usePiecewisePerfModel = scenario.usePiecewisePerfModel;
    config.kvRetry = scenario.kvRetry;
    config.policy.kind = scenario.policy;
    config.policy.maxContextTokens = scenario.policyMaxContextTokens;
    config.telemetry.traceEnabled = scenario.traceEnabled;
    // Span tracking rides the trace switch (or the explicit
    // override) so fuzzed runs exercise the span-balance invariant.
    config.telemetry.spanTracking = scenario.spansEnabled();
    // Every scenario declares a live-set budget: no run may ever hold
    // more pool slots than it has requests, so the checker's
    // live-set-bound invariant is armed on every DST run.
    config.maxLiveRequests =
        std::max<std::size_t>(std::size_t{1}, scenario.requests.size());
    return config;
}

std::string
flightRecorderJson(const telemetry::SpanTracker& spans,
                   const engine::RequestPool& pool)
{
    // Open timelines live in the request rows; dump them in id order,
    // not slot order, so the bytes depend only on the run.
    std::vector<telemetry::SpanTimeline> live;
    pool.forEachLive([&](const engine::LiveRequest& req) {
        if (req.spans.open())
            live.push_back({req.spec.id, req.spans.arrivalUs,
                            telemetry::kSpanOpen, req.spans.restarts,
                            req.spans.segments});
    });
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) {
                  return a.requestId < b.requestId;
              });
    return spans.flightRecorderJson(live);
}

ScenarioOutcome
runScenario(const Scenario& scenario, const InvariantOptions& options)
{
    scenario.faults.validate(scenario.machines());

    ScenarioOutcome outcome;
    bool leaked = false;
    // Seeded KV-leak bugs allocate for this request, which no pool
    // slot owns: the checker cannot find its hold, so the orphan
    // invariant must fire. It outlives the cluster that counts it.
    engine::LiveRequest phantom;

    core::Cluster cluster(model::llama2_70b(), scenarioDesign(scenario),
                          scenarioSimConfig(scenario));
    core::FaultInjector injector(cluster);
    injector.apply(scenario.faults);

    // Seeded bugs install their hooks before the checker's, so the
    // corruption lands just before the same quiescent point's check.
    if (scenario.bug.kind == BugKind::kOrphanKvBlock) {
        cluster.simulator().postAfter(scenario.bug.atUs, [&cluster, &scenario,
                                                           &phantom] {
            const auto idx =
                static_cast<std::size_t>(scenario.bug.machineId);
            cluster.machines()[idx]->mls().blocks().allocate(phantom, 16);
        });
    } else if (scenario.bug.kind == BugKind::kLeakPromptKv) {
        cluster.simulator().addTimeAdvanceHook([&cluster, &leaked,
                                                &phantom](sim::TimeUs) {
            if (leaked)
                return;
            cluster.requestPool().forEachLive(
                [&](const engine::LiveRequest& req) {
                    if (leaked || req.terminal() ||
                        req.phase != engine::RequestPhase::kDecoding ||
                        req.promptMachine < 0 ||
                        req.promptMachine == req.tokenMachine) {
                        return;
                    }
                    // The "forgotten" source-side copy after a transfer.
                    auto& blocks =
                        cluster.machines()[static_cast<std::size_t>(
                                               req.promptMachine)]
                            ->mls()
                            .blocks();
                    if (blocks.allocate(phantom, 16))
                        leaked = true;
                });
        });
    }

    // The controller posts its own tick events, so it must exist
    // before run(); splitwise-only because baselines have no pools
    // to scale.
    std::unique_ptr<control::Autoscaler> autoscaler;
    if (scenario.autoscale && cluster.design().splitwise) {
        autoscaler = std::make_unique<control::Autoscaler>(
            cluster, dstAutoscalerConfig(cluster.design()));
    }

    InvariantChecker checker(cluster, options);
    if (autoscaler)
        checker.attachController(autoscaler.get());
    try {
        // Both ingestion paths must be byte-identical; the fuzzer
        // flips streamIngest on a fraction of seeds to prove it.
        workload::VectorTraceStream stream(scenario.requests);
        core::RunReport report = scenario.streamIngest
                                     ? cluster.run(stream)
                                     : cluster.run(scenario.requests);
        if (autoscaler)
            autoscaler->fillReport(report);
        checker.finalCheck(report);
        outcome.completed = report.requests.completed();
        outcome.rejected = report.rejected;
        outcome.restarts = report.restarts;
        outcome.transfers = report.transfers.transfers;

        // Splice the report text directly: reportToJson already emits
        // the compact dump() style, and round-tripping it through a
        // JsonValue DOM per scenario dominated the spans-on cost of
        // the whole DST harness.
        outcome.outcomeJson =
            "{\"violated\":false,\"report\":" + core::reportToJson(report) +
            "}";
    } catch (const InvariantViolation& v) {
        outcome.violated = true;
        outcome.invariant = v.invariant();
        outcome.violationTime = v.at();
        outcome.detail = v.detail();
    } catch (const std::runtime_error& e) {
        // Cluster::run fatals (deadlocked requests, config errors)
        // count as liveness violations: the scenario never drained.
        outcome.violated = true;
        outcome.invariant = "liveness";
        outcome.violationTime = cluster.simulator().now();
        outcome.detail = e.what();
    }

    if (outcome.violated) {
        core::JsonValue json = core::JsonValue::makeObject();
        json.set("violated", core::JsonValue(true));
        json.set("invariant", core::JsonValue(outcome.invariant));
        json.set("violation_time_us", core::JsonValue(outcome.violationTime));
        json.set("detail", core::JsonValue(outcome.detail));
        outcome.outcomeJson = json.dump();
        // Snapshot the span flight recorder before the cluster (and
        // its tracker) go out of scope.
        if (cluster.spanTracker()) {
            outcome.flightRecorderJson = flightRecorderJson(
                *cluster.spanTracker(), cluster.requestPool());
        }
    }
    return outcome;
}

}  // namespace splitwise::testing
