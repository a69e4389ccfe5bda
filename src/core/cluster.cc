#include "core/cluster.h"

#include <algorithm>
#include <string>

#include "core/ingress.h"
#include "core/recording.h"
#include "sim/clock.h"
#include "sim/log.h"

namespace splitwise::core {

namespace {

/** Restore bandwidth of the KV checkpoint store, GB/s. */
constexpr double kCheckpointRestoreGBps = 100.0;

/** Build the iteration-pricing model for one machine spec. */
std::unique_ptr<model::PerfModel>
buildPerfModel(const model::LlmConfig& llm, const hw::MachineSpec& spec,
               bool piecewise)
{
    auto analytical = std::make_unique<model::AnalyticalPerfModel>(llm, spec);
    if (!piecewise)
        return analytical;
    return model::PiecewiseLinearPerfModel::fit(*analytical);
}

}  // namespace

Cluster::Cluster(model::LlmConfig llm, ClusterDesign design, SimConfig config)
    : llm_(std::move(llm)), design_(std::move(design)), config_(config),
      engine_(simulator_, llm_, config.layerwiseThresholdTokens,
              config.kvCompressionRatio)
{
    if (design_.numPrompt <= 0)
        sim::fatal("Cluster: design needs at least one prompt machine");
    if (design_.splitwise && design_.numToken <= 0)
        sim::fatal("Cluster: Splitwise design needs token machines");

    results_.setSketchMode(config_.sketchLatencies);

    // Token machines are "full" once another resident would push
    // their TBT past the median SLO bound (Table VI: 1.25x the
    // uncontended DGX-A100 reference).
    if (config_.cls.tokenSloTbtMs == 0.0) {
        const SloChecker reference(llm_);
        config_.cls.tokenSloTbtMs = 1.25 * reference.refTbtMs(1200);
    }

    engine::Machine::Callbacks callbacks;
    callbacks.onPromptDone = [this](engine::Machine& m,
                                    engine::LiveRequest* req,
                                    sim::TimeUs prompt_compute) {
        engine_.startTransfer(req, &m, machineById(req->tokenMachine),
                              prompt_compute);
    };
    callbacks.onRequestDone = [this](engine::Machine&,
                                     engine::LiveRequest* req) {
        const metrics::RequestResult result = req->result();
        results_.add(result);
        if (spans_) {
            spans_->complete(req->spec.id, simulator_.now(),
                             worstSlowdown(result));
        }
        if (liveDone_)
            liveDone_(req);
        // The machine dropped every reference before this callback
        // (mls.finish ran, KV released); the record and span are
        // folded, so the slot can recycle for a future arrival.
        pool_.release(req);
    };
    callbacks.transferInterference =
        [this](engine::Machine& m, engine::LiveRequest* req,
               sim::TimeUs prompt_compute) {
            return engine_.interferenceFor(m, req, prompt_compute);
        };
    callbacks.onMemoryFreed = [this](engine::Machine& m) {
        engine_.onMemoryFreed(&m);
    };
    callbacks.onIterationEnd = [this](engine::Machine& m) {
        if (cls_)
            cls_->onIterationEnd(m);
    };
    callbacks.onPrefillComplete = [this](engine::Machine& m,
                                         engine::LiveRequest* req) {
        if (prefixCache_)
            prefixCache_->onPrefillComplete(m, *req);
    };

    auto build_pool = [&](const hw::MachineSpec& spec, int count,
                          std::vector<engine::Machine*>& out) {
        if (count <= 0)
            return;
        perfModels_.push_back(
            buildPerfModel(llm_, spec, config_.usePiecewisePerfModel));
        memoryModels_.push_back(std::make_unique<model::MemoryModel>(
            llm_, spec, config_.memoryUtilFraction));
        const auto* perf = perfModels_.back().get();
        const auto* memory = memoryModels_.back().get();
        for (int i = 0; i < count; ++i) {
            const int id = static_cast<int>(machines_.size());
            machines_.push_back(std::make_unique<engine::Machine>(
                simulator_, id, spec, *perf, *memory, config_.mls,
                callbacks));
            engine_.registerMachine(machines_.back().get());
            out.push_back(machines_.back().get());
        }
    };

    std::vector<engine::Machine*> prompt_pool;
    std::vector<engine::Machine*> token_pool;
    build_pool(design_.promptSpec, design_.numPrompt, prompt_pool);
    build_pool(design_.tokenSpec, design_.numToken, token_pool);

    cls_ = std::make_unique<ClusterScheduler>(
        simulator_, config_.cls, prompt_pool, token_pool, design_.splitwise);

    if (config_.policy.kind == sched::PolicyKind::kPrefixCache) {
        std::vector<engine::Machine*> all_machines;
        all_machines.reserve(machines_.size());
        for (const auto& m : machines_)
            all_machines.push_back(m.get());
        prefixCache_ = std::make_unique<sched::PrefixCache>(
            config_.policy, std::move(all_machines));
        cls_->setPrefixCache(prefixCache_.get());
    }

    engine_.setRetryPolicy(config_.kvRetry);
    engine_.setOnAbort(
        [this](engine::LiveRequest* req) { onTransferAbort(req); });

    pool_.setRecycling(config_.requestRecycling);

    setupTelemetry();
}

void
Cluster::setupTelemetry()
{
    // Fault/recovery counters (owned cells: hot paths bump them
    // directly, the report and sampler read the same values).
    restarts_ = registry_.counter("restarts");
    checkpointRestores_ = registry_.counter("checkpoint_restores");
    rejected_ = registry_.counter("rejected");

    // Scheduler and transfer-engine stats stay where they are; the
    // registry reads them through callbacks so the existing structs
    // need no restructuring.
    registry_.addCounterFn("rejoins", [this] { return cls_->rejoins(); });
    registry_.addCounterFn("shed_requests",
                           [this] { return cls_->shedRequests(); });
    registry_.addCounterFn("mixed_routes",
                           [this] { return cls_->mixedPoolRoutes(); });
    registry_.addCounterFn("pool_transitions",
                           [this] { return cls_->poolTransitions(); });
    registry_.addCounterFn("kv_transfers",
                           [this] { return engine_.stats().transfers; });
    registry_.addCounterFn("kv_retries",
                           [this] { return engine_.stats().transferRetries; });
    registry_.addCounterFn("kv_faults",
                           [this] { return engine_.stats().transferFaults; });
    registry_.addCounterFn("kv_timeouts", [this] {
        return engine_.stats().transferTimeouts;
    });
    registry_.addCounterFn("kv_aborts",
                           [this] { return engine_.stats().transferAborts; });
    registry_.addCounterFn("kv_memory_stalls",
                           [this] { return engine_.stats().memoryStalls; });
    registry_.addCounterFn("tokens_generated", [this] {
        std::uint64_t total = 0;
        for (const auto& m : machines_)
            total += static_cast<std::uint64_t>(m->stats().tokensGenerated);
        return total;
    });
    registry_.addCounterFn("prompt_tokens_processed", [this] {
        std::uint64_t total = 0;
        for (const auto& m : machines_) {
            total += static_cast<std::uint64_t>(
                m->stats().promptTokensProcessed);
        }
        return total;
    });

    // Prefix-cache counters exist only under the prefix policy so
    // default-policy time-series columns stay byte-identical.
    if (prefixCache_) {
        auto prefix_sum = [this](auto pick) {
            return [this, pick] {
                std::uint64_t total = 0;
                for (const auto& m : machines_)
                    total += pick(m->mls().blocks().prefixStats());
                return total;
            };
        };
        registry_.addCounterFn(
            "prefix_hits", prefix_sum([](const engine::PrefixCacheStats& s) {
                return s.hits;
            }));
        registry_.addCounterFn(
            "prefix_misses",
            prefix_sum([](const engine::PrefixCacheStats& s) {
                return s.misses;
            }));
        registry_.addCounterFn(
            "prefix_evictions",
            prefix_sum([](const engine::PrefixCacheStats& s) {
                return s.evictions;
            }));
        registry_.addCounterFn(
            "prefix_hit_tokens",
            prefix_sum([](const engine::PrefixCacheStats& s) {
                return static_cast<std::uint64_t>(s.hitTokens);
            }));
    }

    // Instantaneous cluster gauges.
    registry_.addGauge("queued_prompt_tokens", [this] {
        return static_cast<double>(cls_->queuedPromptTokens());
    });
    registry_.addGauge("active_batch_tokens", [this] {
        std::int64_t total = 0;
        for (const auto& m : machines_)
            total += m->stats().activeTokens.value();
        return static_cast<double>(total);
    });
    registry_.addGauge("kv_tokens_used", [this] {
        std::int64_t total = 0;
        for (const auto& m : machines_)
            total += m->tokenLoadTokens();
        return static_cast<double>(total);
    });
    registry_.addGauge("inflight_transfers", [this] {
        return static_cast<double>(engine_.inFlightTransfers());
    });
    registry_.addGauge("waiting_transfers", [this] {
        return static_cast<double>(engine_.waitingTransfers());
    });
    registry_.addGauge("prompt_pool_machines", [this] {
        return static_cast<double>(cls_->poolSize(PoolType::kPrompt));
    });
    registry_.addGauge("token_pool_machines", [this] {
        return static_cast<double>(cls_->poolSize(PoolType::kToken));
    });
    registry_.addGauge("mixed_pool_machines", [this] {
        return static_cast<double>(cls_->poolSize(PoolType::kMixed));
    });
    auto pool_power = [this](int lo, int hi) {
        double watts = 0.0;
        for (int i = lo; i < hi; ++i)
            watts += machines_[static_cast<std::size_t>(i)]->currentPowerWatts();
        return watts;
    };
    registry_.addGauge("power_total_w", [this, pool_power] {
        return pool_power(0, design_.machines());
    });
    registry_.addGauge("power_prompt_pool_w", [this, pool_power] {
        return pool_power(0, design_.numPrompt);
    });
    registry_.addGauge("power_token_pool_w", [this, pool_power] {
        return pool_power(design_.numPrompt, design_.machines());
    });

    for (const auto& m_ptr : machines_) {
        engine::Machine* m = m_ptr.get();
        const std::string prefix = "m" + std::to_string(m->id()) + "_";
        registry_.addGauge(prefix + "queue_tokens", [m] {
            return static_cast<double>(m->promptQueueDepthTokens());
        });
        registry_.addGauge(prefix + "kv_tokens", [m] {
            return static_cast<double>(m->tokenLoadTokens());
        });
        registry_.addGauge(prefix + "active_tokens", [m] {
            return static_cast<double>(m->stats().activeTokens.value());
        });
        registry_.addGauge(prefix + "power_w",
                           [m] { return m->currentPowerWatts(); });
    }

    if (config_.telemetry.traceEnabled) {
        trace_ = std::make_unique<telemetry::TraceRecorder>();
        for (const auto& m : machines_) {
            m->setTrace(trace_.get());
            trace_->setTrackName(
                telemetry::TraceRecorder::machineTrack(m->id()),
                "m" + std::to_string(m->id()) + " " + m->spec().name + " (" +
                    poolTypeName(cls_->originOf(m->id())) + ")");
        }
        engine_.setTrace(trace_.get());
        cls_->setTrace(trace_.get());
    }

    if (config_.telemetry.spanTracking) {
        telemetry::SpanTrackerConfig span_config;
        span_config.exemplarK = std::max(0, config_.telemetry.exemplarK);
        spans_ = std::make_unique<telemetry::SpanTracker>(span_config);
        sloRef_ = std::make_unique<SloChecker>(llm_);
        for (const auto& m : machines_)
            m->setSpans(spans_.get());
        engine_.setSpans(spans_.get());
        cls_->setSpans(spans_.get());
    }
}

double
Cluster::worstSlowdown(const metrics::RequestResult& result) const
{
    // Mirrors SloChecker::evaluate's per-request slowdown definitions
    // so an exemplar's rank explains its SLO verdict directly.
    double slowdown = result.ttftMs / sloRef_->refTtftMs(result.promptTokens);
    if (result.outputTokens > 1) {
        const std::int64_t mean_ctx =
            result.promptTokens + result.outputTokens / 2;
        slowdown =
            std::max(slowdown, result.tbtMs / sloRef_->refTbtMs(mean_ctx));
    }
    workload::Request spec;
    spec.promptTokens = result.promptTokens;
    spec.outputTokens = result.outputTokens;
    spec.arrival = result.arrival;
    return std::max(slowdown, result.e2eMs / sloRef_->refE2eMs(spec));
}

void
Cluster::checkFaultSchedulable(int machine_id) const
{
    if (ran_)
        sim::fatal("Cluster: fault scheduling must precede run()");
    if (machine_id < 0 || machine_id >= design_.machines())
        sim::fatal("Cluster: bad machine id in fault schedule");
}

void
Cluster::scheduleFailure(int machine_id, sim::TimeUs at)
{
    checkFaultSchedulable(machine_id);
    simulator_.post(at, [this, machine_id] { failMachine(machine_id); },
                    kFaultEventPriority);
}

void
Cluster::scheduleFailure(int machine_id, sim::TimeUs at,
                         sim::TimeUs downtime_us)
{
    checkFaultSchedulable(machine_id);
    if (downtime_us <= 0)
        sim::fatal("Cluster::scheduleFailure: downtime must be positive");
    simulator_.post(at, [this, machine_id] { failMachine(machine_id); },
                    kFaultEventPriority);
    simulator_.post(at + downtime_us,
                    [this, machine_id] { recoverMachine(machine_id); },
                    kFaultEventPriority);
}

void
Cluster::scheduleSlowdown(int machine_id, sim::TimeUs at,
                          sim::TimeUs duration_us, double factor)
{
    checkFaultSchedulable(machine_id);
    if (factor <= 0.0)
        sim::fatal("Cluster::scheduleSlowdown: factor must be positive");
    simulator_.post(at, [this, machine_id, factor] {
        machineById(machine_id)->setPerfScale(factor);
    }, kFaultEventPriority);
    simulator_.post(at + duration_us, [this, machine_id] {
        machineById(machine_id)->setPerfScale(1.0);
    }, kFaultEventPriority);
}

void
Cluster::scheduleLinkFault(int machine_id, sim::TimeUs at,
                           sim::TimeUs duration_us)
{
    checkFaultSchedulable(machine_id);
    engine_.injectLinkFault(machine_id, at, at + duration_us);
}

void
Cluster::scheduleLinkDegrade(int machine_id, sim::TimeUs at,
                             sim::TimeUs duration_us, double bandwidth_factor)
{
    checkFaultSchedulable(machine_id);
    engine_.injectLinkDegrade(machine_id, at, at + duration_us,
                              bandwidth_factor);
}

void
Cluster::failMachine(int machine_id)
{
    engine::Machine* machine = machineById(machine_id);
    if (machine->failed())
        return;
    // Order matters: take the machine out of routing first, then
    // drop its state, then restart the stranded requests on the
    // survivors.
    cls_->markFailed(machine_id);
    machine->fail();
    // Transfers parked on the dead machine's memory will never land;
    // for a failed destination this drops its waiting list (the
    // requests themselves restart below).
    engine_.onMemoryFreed(machine);
    // The crash wiped the machine's cached prefixes with its KV;
    // drop its directory entries so follow-up session turns miss
    // cleanly instead of routing to an empty cache.
    if (prefixCache_)
        prefixCache_->onMachineFailed(machine_id);
    sim::inform("machine failed", {{"machine", std::to_string(machine_id)}});

    // A failure can empty routing entirely while the controller holds
    // machines in standby; bring one straight back so the stranded
    // restarts below have somewhere to land.
    if (cls_->liveMachines() == 0) {
        const int standby_id = cls_->anyStandby();
        engine::Machine* standby = machineById(standby_id);
        if (standby->parked())
            standby->unpark();
        cls_->restore(standby_id);
        ++emergencyRestores_;
        sim::inform("emergency restore",
                    {{"machine", std::to_string(standby_id)}});
    }

    // Pool slot order is recycling order, not arrival order; collect
    // the stranded requests first and restart them sorted by id
    // (monotone in arrival order) so recovery placement matches the
    // old trace-order walk exactly.
    std::vector<engine::LiveRequest*> stranded_reqs;
    pool_.forEachLive([&](engine::LiveRequest& live_req) {
        engine::LiveRequest* req = &live_req;
        if (req->terminal())
            return;
        const bool stranded =
            ((req->phase == engine::RequestPhase::kPromptQueued ||
              req->phase == engine::RequestPhase::kPromptRunning) &&
             req->promptMachine == machine_id) ||
            (req->phase == engine::RequestPhase::kTransferring &&
             (req->promptMachine == machine_id ||
              req->tokenMachine == machine_id)) ||
            (req->phase == engine::RequestPhase::kDecoding &&
             req->tokenMachine == machine_id);
        if (stranded) {
            stranded_reqs.push_back(req);
            return;
        }
        // Requests not yet split off this machine but destined for
        // it: decode locally instead.
        if (req->tokenMachine == machine_id &&
            req->promptMachine != machine_id) {
            req->tokenMachine = -1;
        }
    });
    std::sort(stranded_reqs.begin(), stranded_reqs.end(),
              [](const engine::LiveRequest* a, const engine::LiveRequest* b) {
                  return a->spec.id < b->spec.id;
              });
    for (engine::LiveRequest* req : stranded_reqs) {
        // Log lines from the restart path (admission, KV
        // release, checkpoint restore) identify their request.
        sim::LogRequestScope log_scope(req->spec.id);
        // Release any KV copy a surviving machine still holds
        // (e.g. the prompt machine of an in-flight transfer).
        for (int mid : {req->promptMachine, req->tokenMachine}) {
            if (mid >= 0 && mid != machine_id)
                machineById(mid)->releaseKv(req);
        }
        // Past the prompt with checkpointing on: restore the
        // KV-cache from the in-memory store instead of
        // recomputing the whole context (SIV-E).
        if (config_.kvCheckpointing && req->generated > 0 &&
            restoreFromCheckpoint(req)) {
            checkpointRestores_->add();
            continue;
        }
        // Fold the lost work into a restart-penalty span before
        // re-admission re-opens the queue span.
        if (spans_)
            spans_->restart(req->spec.id, simulator_.now());
        req->resetForRestart();
        restarts_->add();
        cls_->onArrival(req, /*force_admit=*/true);
    }
    // Fault epochs are exactly where fixed-interval sampling
    // under-resolves; snapshot the post-failure state immediately.
    if (sampler_)
        sampler_->sampleNow();
}

void
Cluster::recoverMachine(int machine_id)
{
    engine::Machine* machine = machineById(machine_id);
    if (!machine->failed())
        return;
    // The machine rejoins empty: fresh queues, zero KV, original
    // pool identity. The CLS's JSQ signals immediately favour it.
    machine->recover();
    cls_->rejoin(machine_id);
    sim::inform("machine rejoined",
                {{"machine", std::to_string(machine_id)},
                 {"pool", poolTypeName(cls_->poolOf(machine_id))}});
    if (sampler_)
        sampler_->sampleNow();
}

void
Cluster::onTransferAbort(engine::LiveRequest* request)
{
    if (request->terminal())
        return;
    // The retry budget is spent; fall back to the paper's blunt
    // policy and recompute the prompt from scratch. Restarts bypass
    // admission control - the request was already accepted.
    sim::LogRequestScope log_scope(request->spec.id);
    sim::inform("transfer retries exhausted; restarting request");
    if (spans_)
        spans_->restart(request->spec.id, simulator_.now());
    request->resetForRestart();
    restarts_->add();
    cls_->onArrival(request, /*force_admit=*/true);
}

bool
Cluster::restoreFromCheckpoint(engine::LiveRequest* request)
{
    engine::Machine* host = cls_->pickRecoveryTokenMachine();
    if (!host || host->failed())
        return false;
    if (!host->reserveKv(request, request->contextTokens() + 1))
        return false;
    // The generated-token history survives; only the cache placement
    // changes. Bump the epoch so stale in-flight events drop.
    ++request->restartEpoch;
    request->phase = engine::RequestPhase::kTransferring;
    request->tokenMachine = host->id();
    if (trace_)
        trace_->transition(
            telemetry::TraceRecorder::requestTrack(request->spec.id),
            "kv_restore", simulator_.now(), {{"host", host->id()}});
    // The generated work survives, so this is a transfer span (the
    // restore pays a wire move), not a restart penalty.
    if (spans_)
        spans_->transition(request->spec.id,
                           telemetry::SpanPhase::kKvTransfer,
                           simulator_.now());
    const double bytes = static_cast<double>(request->contextTokens()) *
                         static_cast<double>(llm_.kvBytesPerToken()) /
                         config_.kvCompressionRatio;
    const auto restore_us =
        sim::secondsToUs(bytes / (kCheckpointRestoreGBps * 1e9));
    const std::uint32_t epoch = request->restartEpoch;
    simulator_.postAfter(restore_us, [this, request, host, epoch] {
        if (request->restartEpoch != epoch || host->failed()) {
            // The host died during the restore; the failure handler
            // already rerouted the request.
            return;
        }
        host->acceptTransferred(request);
    });
    return true;
}

engine::Machine*
Cluster::machineById(int id)
{
    if (id < 0 || id >= static_cast<int>(machines_.size()))
        sim::panic("Cluster: bad machine id " + std::to_string(id));
    return machines_[static_cast<std::size_t>(id)].get();
}

void
Cluster::admitArrival(const workload::Request& spec)
{
    engine::LiveRequest* req = pool_.acquire();
    req->spec = spec;
    ++submitted_;
    if (!cls_->onArrival(req)) {
        req->phase = engine::RequestPhase::kRejected;
        rejected_->add();
        if (liveRejected_)
            liveRejected_(req);
        // Shed before any work ran: nothing holds a pointer (no
        // route, no span), so the slot recycles immediately.
        pool_.release(req);
    }
}

void
Cluster::postNextArrival()
{
    workload::Request spec;
    if (!stream_->next(spec))
        return;
    // Posting into the past panics in the simulator, which doubles
    // as the stream-ordering check: arrivals must be non-decreasing.
    simulator_.post(spec.arrival, [this, spec] {
        admitArrival(spec);
        postNextArrival();
    }, kArrivalEventPriority);
}

RunReport
Cluster::run(const workload::Trace& trace)
{
    workload::VectorTraceStream stream(trace);
    return run(stream);
}

void
Cluster::beginRun()
{
    if (ran_)
        sim::fatal("Cluster::run is one-shot; build a fresh cluster");
    ran_ = true;
}

void
Cluster::installSampler()
{
    if (config_.telemetry.sampleIntervalUs > 0) {
        sampler_ = std::make_unique<telemetry::TimeSeriesSampler>(
            simulator_, registry_, config_.telemetry.sampleIntervalUs);
        sampler_->install();
    }
}

RunReport
Cluster::run(workload::TraceStream& stream)
{
    beginRun();

    // Lazy arrival chain: exactly one pending arrival event at any
    // time, each admitting its request and pulling the next. The
    // event queue and the live set stay O(in-flight) regardless of
    // trace length.
    stream_ = &stream;
    postNextArrival();

    installSampler();

    simulator_.run();
    stream_ = nullptr;

    return buildReport();
}

RunReport
Cluster::buildReport()
{
    if (pool_.liveCount() > 0) {
        sim::fatal("Cluster: " + std::to_string(pool_.liveCount()) +
                   " requests never completed (deadlock)");
    }

    RunReport report;
    report.requests = results_;
    report.submitted = submitted_;
    report.simulatedUs = simulator_.now();
    report.footprint = design_.footprint();
    report.transfers = engine_.stats();
    report.mixedRoutes = cls_->mixedPoolRoutes();
    report.poolTransitions = cls_->poolTransitions();
    report.restarts = restarts_->value();
    report.checkpointRestores = checkpointRestores_->value();
    report.rejected = rejected_->value();
    report.rejoins = cls_->rejoins();
    report.control.emergencyRestores = emergencyRestores_;
    if (spans_)
        report.breakdown = spans_->breakdown();

    if (prefixCache_) {
        report.prefixCache.enabled = true;
        for (const auto& m : machines_) {
            const auto& ps = m->mls().blocks().prefixStats();
            report.prefixCache.hits += ps.hits;
            report.prefixCache.misses += ps.misses;
            report.prefixCache.evictions += ps.evictions;
            report.prefixCache.stores += ps.stores;
            report.prefixCache.hitTokens += ps.hitTokens;
        }
        const sched::DirectoryStats pstats = prefixCache_->stats();
        report.prefixCache.directoryMisses = pstats.directoryMisses;
        report.prefixCache.affinityRoutes = pstats.affinityRoutes;
        report.prefixCache.directorySize =
            static_cast<std::uint64_t>(pstats.directorySize);
    }

    if (sampler_) {
        // The final row lands at end-of-run, so cumulative columns
        // (e.g. tokens_generated) close exactly on the aggregates.
        sampler_->finish();
        report.timeseries = sampler_->series();
    }

    auto fold = [&](engine::Machine& m, PoolReport& pool) {
        m.finalizeStats();
        const auto& s = m.stats();
        pool.machines += 1;
        pool.busyUs += s.busyUs;
        pool.iterations += s.iterations;
        pool.energyWh += s.energyWh;
        pool.promptTokensProcessed += s.promptTokensProcessed;
        pool.tokensGenerated += s.tokensGenerated;
        pool.parkedUs += s.parkedUs;
        pool.downUs += s.downUs;
        pool.poweredUs += s.poweredUs;
        pool.idleEnergyWh += s.idleEnergyWh;
        pool.costDollars += sim::usToSeconds(s.poweredUs) / 3600.0 *
                            m.spec().costPerHour;
        pool.activeTokens.merge(s.activeTokens.histogram());
        report.preemptions += m.mls().preemptionCount();
    };
    for (int i = 0; i < design_.numPrompt; ++i)
        fold(*machines_[static_cast<std::size_t>(i)], report.promptPool);
    for (int i = design_.numPrompt; i < design_.machines(); ++i)
        fold(*machines_[static_cast<std::size_t>(i)], report.tokenPool);

    return report;
}

void
Cluster::cancelRequest(std::uint64_t request_id)
{
    // At most one live request carries the id (ids are unique and
    // the scan skips terminal ones), so visit order is immaterial
    // and the operation is deterministic.
    pool_.forEachLive([&](engine::LiveRequest& req) {
        if (req.spec.id != request_id || req.terminal())
            return;
        // Clamp instead of tearing down: the request ends naturally
        // at its next token boundary, so every downstream path
        // (spans, KV release, transfer completion) runs unchanged.
        // Never below one token — a request that produced nothing
        // yet still yields its prompt token, keeping accounting and
        // the invariant checker consistent. Idempotent: a second
        // cancel sees the same or a smaller budget and never
        // extends it.
        const std::int64_t floor = std::max<std::int64_t>(req.generated + 1, 1);
        req.spec.outputTokens = std::min(req.spec.outputTokens, floor);
    });
}

void
Cluster::scheduleCancel(std::uint64_t request_id, sim::TimeUs at)
{
    if (ran_)
        sim::fatal("Cluster: scheduleCancel before run(), not during");
    simulator_.post(at, [this, request_id] { cancelRequest(request_id); },
                    kArrivalEventPriority);
}

RunReport
Cluster::serve(Ingress& ingress, sim::Clock& clock, SessionRecording* capture)
{
    beginRun();
    installSampler();

    // Stream per-token updates out through the ingress callback map.
    for (auto& m : machines_) {
        m->setOnToken([this, &ingress](engine::LiveRequest* req) {
            TokenUpdate update;
            update.requestId = req->spec.id;
            update.tokensGenerated = req->generated;
            update.finished = req->finished();
            update.at = simulator_.now();
            ingress.dispatch(update);
        });
    }
    liveDone_ = [&ingress](engine::LiveRequest* req) {
        ingress.onFinished(req->spec.id);
    };
    liveRejected_ = [this, &ingress](engine::LiveRequest* req) {
        ingress.onRejected(req->spec.id, simulator_.now());
    };

    ingress.beginServe(&clock);

    // Drain the mailbox: stamp each client operation with a strictly
    // increasing simulated time and post it as an ordinary
    // arrival-priority event. Unique stamps give ingress ops a total
    // order all by themselves, so the capture replays bit-exact.
    std::vector<Ingress::Op> ops;
    sim::TimeUs last_stamp = 0;
    auto drain = [&] {
        if (!ingress.takeOps(&ops))
            return;
        for (Ingress::Op& op : ops) {
            if (op.kind == Ingress::Op::Kind::kInspect) {
                // Quiescent by construction — run inline, off the
                // record: inspections never perturb the event order.
                Ingress::runInspect(op, *this);
                continue;
            }
            sim::TimeUs t = clock.now();
            if (t <= simulator_.now())
                t = simulator_.now() + 1;
            if (t <= last_stamp)
                t = last_stamp + 1;
            last_stamp = t;
            if (op.kind == Ingress::Op::Kind::kSubmit) {
                workload::Request spec;
                spec.id = op.id;
                spec.arrival = t;
                spec.promptTokens = op.request.promptTokens;
                spec.outputTokens = op.request.outputTokens;
                spec.priority = op.request.priority;
                spec.session = op.request.session;
                spec.turn = op.request.turn;
                if (capture)
                    capture->requests.push_back(spec);
                ingress.onAdmitQueued(op.id, std::move(op.onToken));
                simulator_.post(t, [this, spec] { admitArrival(spec); },
                                kArrivalEventPriority);
            } else {
                if (capture)
                    capture->cancels.push_back({t, op.id});
                const std::uint64_t id = op.id;
                simulator_.post(t, [this, id] { cancelRequest(id); },
                                kArrivalEventPriority);
            }
        }
    };

    for (;;) {
        drain();
        if (simulator_.pendingEvents() == 0) {
            if (ingress.shutdownRequested() && !ingress.hasQueued())
                break;
            clock.waitForWork();
            continue;
        }
        const sim::TimeUs next = simulator_.eventQueue().nextTime();
        if (!clock.waitUntil(next))
            continue;  // Woken early: fresh ingress ops to stamp.
        // Fire the whole timestamp batch before draining again, so
        // new ingress ops can only land strictly after it — the
        // quiescent-point rule that makes live == replay.
        while (simulator_.pendingEvents() > 0 &&
               simulator_.eventQueue().nextTime() == next) {
            simulator_.step();
        }
    }

    liveDone_ = nullptr;
    liveRejected_ = nullptr;
    for (auto& m : machines_)
        m->setOnToken(nullptr);
    RunReport report = buildReport();
    ingress.endServe(*this);
    return report;
}

}  // namespace splitwise::core
