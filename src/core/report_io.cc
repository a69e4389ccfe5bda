#include "core/report_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/log.h"

namespace splitwise::core {

namespace {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Latency distribution emission goes through the mode-agnostic
 * LatencyStats view: exact runs serialize the order statistics of the
 * per-request records, sketch runs the sketch estimates with the same
 * schema.
 */
void
summaryJson(std::ostringstream& out, const char* name,
            const metrics::RequestMetrics::LatencyStats& s)
{
    out << '"' << name << "\":{\"count\":" << s.count
        << ",\"mean\":" << num(s.mean) << ",\"p50\":" << num(s.p50)
        << ",\"p90\":" << num(s.p90) << ",\"p99\":" << num(s.p99)
        << ",\"max\":" << num(s.max) << '}';
}

void
poolJson(std::ostringstream& out, const char* name, const PoolReport& pool)
{
    out << '"' << name << "\":{\"machines\":" << pool.machines
        << ",\"busy_s\":" << num(sim::usToSeconds(pool.busyUs))
        << ",\"iterations\":" << pool.iterations
        << ",\"energy_wh\":" << num(pool.energyWh)
        << ",\"prompt_tokens\":" << pool.promptTokensProcessed
        << ",\"tokens_generated\":" << pool.tokensGenerated << '}';
}

void
limitsJson(std::ostringstream& out, const char* name, const SloLimits& l)
{
    out << '"' << name << "\":{\"p50\":" << num(l.p50)
        << ",\"p90\":" << num(l.p90) << ",\"p99\":" << num(l.p99) << '}';
}

}  // namespace

std::string
reportToJson(const RunReport& report, const SloReport* slo)
{
    std::ostringstream out;
    out << '{';
    out << "\"design\":{\"machines\":" << report.footprint.machines
        << ",\"cost_per_hour\":" << num(report.footprint.costPerHour)
        << ",\"power_watts\":" << num(report.footprint.powerWatts) << "},";

    out << "\"requests\":{\"submitted\":" << report.submitted
        << ",\"completed\":" << report.requests.completed()
        << ",\"throughput_rps\":" << num(report.requests.throughputRps())
        << ",\"token_throughput\":" << num(report.requests.tokenThroughput())
        << ',';
    summaryJson(out, "ttft_ms", report.requests.ttftStats());
    out << ',';
    summaryJson(out, "tbt_ms", report.requests.tbtStats());
    out << ',';
    summaryJson(out, "max_tbt_ms", report.requests.maxTbtStats());
    out << ',';
    summaryJson(out, "e2e_ms", report.requests.e2eStats());
    out << "},";

    out << "\"pools\":{";
    poolJson(out, "prompt", report.promptPool);
    out << ',';
    poolJson(out, "token", report.tokenPool);
    out << "},";

    out << "\"transfers\":{\"count\":" << report.transfers.transfers
        << ",\"layerwise\":" << report.transfers.layerwiseTransfers
        << ",\"bytes\":" << report.transfers.bytesMoved
        << ",\"memory_stalls\":" << report.transfers.memoryStalls
        << ",\"faults\":" << report.transfers.transferFaults
        << ",\"timeouts\":" << report.transfers.transferTimeouts
        << ",\"retries\":" << report.transfers.transferRetries
        << ",\"aborts\":" << report.transfers.transferAborts
        << ",\"degraded\":" << report.transfers.degradedTransfers << "},";

    out << "\"scheduler\":{\"mixed_routes\":" << report.mixedRoutes
        << ",\"pool_transitions\":" << report.poolTransitions
        << ",\"preemptions\":" << report.preemptions
        << ",\"restarts\":" << report.restarts
        << ",\"checkpoint_restores\":" << report.checkpointRestores
        << ",\"rejected\":" << report.rejected
        << ",\"rejoins\":" << report.rejoins << '}';

    // Latency attribution: present only when span tracking was on,
    // so existing reports keep their schema.
    if (report.breakdown.enabled) {
        const telemetry::LatencyBreakdown& b = report.breakdown;
        out << ",\"breakdown\":{\"requests\":" << b.requests
            << ",\"e2e_total_ms\":" << num(b.e2eTotalMs)
            << ",\"attributed_total_ms\":" << num(b.attributedTotalMs)
            << ",\"phases\":{";
        bool first = true;
        for (const auto& p : b.phases) {
            if (!first)
                out << ',';
            first = false;
            out << '"' << telemetry::spanPhaseName(p.phase)
                << "\":{\"requests\":" << p.requests
                << ",\"total_ms\":" << num(p.totalMs)
                << ",\"mean\":" << num(p.meanMs) << ",\"p50\":" << num(p.p50Ms)
                << ",\"p99\":" << num(p.p99Ms) << ",\"max\":" << num(p.maxMs)
                << '}';
        }
        out << "}}";
    }

    // Prefix-cache section: present only under a non-default
    // scheduling policy, so default-policy reports (and every
    // existing golden) keep their byte-exact schema.
    if (report.prefixCache.enabled) {
        const PrefixCacheReport& p = report.prefixCache;
        out << ",\"prefix_cache\":{\"hits\":" << p.hits
            << ",\"misses\":" << p.misses
            << ",\"evictions\":" << p.evictions
            << ",\"stores\":" << p.stores
            << ",\"hit_tokens\":" << p.hitTokens
            << ",\"directory_misses\":" << p.directoryMisses
            << ",\"affinity_routes\":" << p.affinityRoutes
            << ",\"directory_size\":" << p.directorySize << '}';
    }

    // Sampled time-series: present only when sampling was on, so
    // telemetry-off reports keep the exact pre-telemetry schema.
    if (!report.timeseries.empty())
        out << ",\"timeseries\":" << report.timeseries.toJson();

    // Control-plane section: present only when an autoscaler drove
    // the run, so uncontrolled reports keep the existing schema.
    if (report.control.enabled) {
        const ControlReport& c = report.control;
        out << ",\"control\":{\"ticks\":" << c.ticks
            << ",\"scale_ups\":" << c.scaleUps
            << ",\"scale_downs\":" << c.scaleDowns
            << ",\"role_flexes\":" << c.roleFlexes
            << ",\"brownout_transitions\":" << c.brownoutTransitions
            << ",\"max_brownout_level\":" << c.maxBrownoutLevel
            << ",\"brownout_s\":" << num(sim::usToSeconds(c.brownoutUs))
            << ",\"power_cap_changes\":" << c.powerCapChanges
            << ",\"emergency_restores\":" << c.emergencyRestores
            << ",\"machine_hours\":" << num(c.machineHours)
            << ",\"cost_dollars\":" << num(c.costDollars)
            << ",\"total_energy_wh\":" << num(c.totalEnergyWh)
            << ",\"slo_attainment\":" << num(c.sloAttainment) << '}';
    }

    if (slo) {
        out << ",\"slo\":{\"pass\":" << (slo->pass ? "true" : "false")
            << ",\"violation\":\"" << slo->violation << "\",";
        limitsJson(out, "ttft_slowdown", slo->ttftSlowdown);
        out << ',';
        limitsJson(out, "tbt_slowdown", slo->tbtSlowdown);
        out << ',';
        limitsJson(out, "e2e_slowdown", slo->e2eSlowdown);
        out << ',';
        limitsJson(out, "max_tbt_slowdown", slo->maxTbtSlowdown);
        out << '}';
    }
    out << '}';
    return out.str();
}

void
writeReportJson(const RunReport& report, const std::string& path,
                const SloReport* slo)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("writeReportJson: cannot open " + path);
    out << reportToJson(report, slo) << '\n';
}

}  // namespace splitwise::core
