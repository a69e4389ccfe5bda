/**
 * @file
 * Online autoscaling under time-varying traffic (ISSUE 6): a
 * Splitwise-HH cluster serving a compressed diurnal day and a
 * flash-crowd spike, provisioned three ways -
 *
 *   auto    full fleet + the Autoscaler control plane (parks idle
 *           machines, unparks/flexes under surge, browns out and
 *           power-caps as last resorts)
 *   peak    the full fleet statically routed all day
 *   trough  a fleet sized for the overnight valley, static
 *
 * plus a `storm` run that composes the flash crowd with a seeded
 * fault storm and arms the DST invariant checker, so controller
 * actions race failures under the full invariant catalog.
 *
 * The binary is its own acceptance gate and exits non-zero unless
 *   - diurnal: auto beats peak on paid machine-hours without giving
 *     up SLO attainment (graceful degradation is not free capacity);
 *   - flash:   auto beats trough on SLO attainment (an undersized
 *     static fleet cannot absorb the spike);
 *   - storm:   every request is accounted for and no invariant trips.
 *
 *   bench_autoscale [--jobs=N] [--short] [--report-out=PATH]
 *
 * `--report-out` writes every run's full report JSON; CI diffs the
 * file across `--jobs 1` and `--jobs 8` as a determinism gate.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "control/autoscaler.h"
#include "core/fault_plan.h"
#include "core/report_io.h"
#include "testing/invariants.h"
#include "workload/rate_curve.h"

namespace {

using namespace splitwise;

enum class Provisioning { kAuto, kPeak, kTrough };

struct AutoscaleRun {
    std::string name;
    /** Arrival-rate shape over the compressed day. */
    workload::RateCurve curve;
    Provisioning provisioning = Provisioning::kAuto;
    bool storm = false;
};

struct AutoscaleResult {
    core::RunReport report;
    std::vector<std::string> row;
    double machineHours = 0.0;
    double attainment = 0.0;
    bool accounted = true;
    bool violated = false;
    std::string violation;
    std::string reportJson;
};

/** Paid machine-time, hours: identical formula for all variants so
 *  the auto-vs-static comparison is apples to apples. */
double
paidMachineHours(const core::RunReport& report)
{
    return sim::usToSeconds(report.promptPool.poweredUs +
                            report.tokenPool.poweredUs) /
           3600.0;
}

/** Controller tuning for the compressed bench day: cadence and
 *  cooldowns shrink with the day so the controller gets the same
 *  number of decisions a real day would offer. */
control::AutoscalerConfig
benchControllerConfig()
{
    control::AutoscalerConfig cfg;
    cfg.tickIntervalUs = sim::msToUs(250.0);
    cfg.slidingWindowUs = sim::secondsToUs(3.0);
    cfg.provisioningLeadUs = sim::secondsToUs(1.0);
    cfg.scaleCooldownUs = sim::msToUs(2500.0);
    cfg.brownoutCooldownUs = sim::msToUs(2500.0);
    // Act early on the diurnal ramp: the lead time plus one cooldown
    // per machine is all the slack the rising edge offers.
    cfg.ttftScaleUpSlowdown = 2.5;
    cfg.tbtScaleUpSlowdown = 2.0;
    cfg.queuedTokensHighPerMachine = 3000;
    cfg.queuedTokensLowPerMachine = 300;
    cfg.kvLowUtilization = 0.20;
    // The ladder is a last resort for the flash/storm runs; plain
    // diurnal load must never brown out.
    cfg.brownoutQueuedTokensPerMachine = 25000;
    cfg.brownoutTtftSlowdown = 12.0;
    // Keep the overnight floor at the trough fleet's size, so the
    // saved machine-hours come from the shoulders, not from serving
    // the valley on a single pair.
    cfg.minPromptMachines = 2;
    cfg.minTokenMachines = 2;
    return cfg;
}

}  // namespace

int
main(int argc, char** argv)
{
    using metrics::Table;

    auto parser = bench::benchParser(
        "bench_autoscale",
        "SLO-driven online autoscaling: diurnal + flash-crowd traffic "
        "under auto / static-peak / static-trough provisioning, plus a "
        "fault-storm soak with the DST invariant catalog armed",
        bench::kSinks | bench::kJobs | bench::kShort);
    std::string report_out;
    parser.addString("--report-out", &report_out,
                     "write every run's full report JSON (determinism "
                     "gate diffs this across --jobs values)");
    parser.parse(argc, argv);
    const bench::BenchArgs& args = bench::benchArgs();

    // One compressed "day". The peak fleet is sized to hold the
    // diurnal crest with margin; the trough fleet to hold the valley.
    const double day_s = args.shortRun ? 40.0 : 120.0;
    const double trough_rps = 3.0;
    const double peak_rps = 14.0;
    const core::ClusterDesign peak_design = core::splitwiseHH(6, 6);
    const core::ClusterDesign trough_design = core::splitwiseHH(2, 2);

    const auto diurnal = workload::RateCurve::diurnal(
        trough_rps, peak_rps, sim::secondsToUs(day_s));
    auto flash = workload::RateCurve::diurnal(trough_rps, peak_rps,
                                              sim::secondsToUs(day_s));
    // Flash crowd: 2.5x multiplier for ~8% of the day, landing on the
    // rising edge where the controller has the least slack.
    flash.addSpike(sim::secondsToUs(0.35 * day_s),
                   sim::secondsToUs(0.08 * day_s), 2.5);

    std::vector<AutoscaleRun> runs = {
        {"diurnal/auto", diurnal, Provisioning::kAuto, false},
        {"diurnal/peak", diurnal, Provisioning::kPeak, false},
        {"diurnal/trough", diurnal, Provisioning::kTrough, false},
        {"flash/auto", flash, Provisioning::kAuto, false},
        {"flash/peak", flash, Provisioning::kPeak, false},
        {"flash/trough", flash, Provisioning::kTrough, false},
        {"storm/auto", flash, Provisioning::kAuto, true},
    };

    bench::banner(
        "Autoscale: Splitwise-HH, conversation, diurnal " +
        Table::fmt(trough_rps, 0) + "-" + Table::fmt(peak_rps, 0) +
        " RPS over a " + Table::fmt(day_s, 0) + "s day (auto fleet 6P+6T, "
        "trough fleet 2P+2T)");

    const core::SloChecker checker(model::llama2_70b());
    core::SimConfig base_config;
    // Generous shed bound: admission control belongs to the brownout
    // ladder in this bench, not the static queue bound.
    base_config.cls.shedQueuedTokensBound = 500000;
    bench::applyTelemetryCli(base_config);
    core::enableSinks(base_config, args.sinks);

    sim::RunPool pool(bench::effectiveJobs());
    const std::vector<AutoscaleResult> results = pool.map(
        runs, [&](const AutoscaleRun& run, std::size_t index) {
            AutoscaleResult res;
            const core::ClusterDesign& design =
                run.provisioning == Provisioning::kTrough ? trough_design
                                                          : peak_design;
            workload::TraceGenerator gen(workload::conversation(), 42);
            const workload::Trace trace =
                gen.generate(run.curve, sim::secondsToUs(day_s));

            core::Cluster cluster(model::llama2_70b(), design,
                                  base_config);
            std::unique_ptr<core::FaultInjector> injector;
            if (run.storm) {
                core::FaultStormConfig storm;
                storm.numMachines = design.machines();
                storm.horizonUs = sim::secondsToUs(0.8 * day_s);
                storm.crashes = 2;
                storm.slowdowns = 2;
                storm.linkFaults = 2;
                storm.linkDegrades = 1;
                injector = std::make_unique<core::FaultInjector>(cluster);
                injector->apply(core::makeFaultStorm(storm, 2024));
            }
            std::unique_ptr<control::Autoscaler> autoscaler;
            if (run.provisioning == Provisioning::kAuto) {
                autoscaler = std::make_unique<control::Autoscaler>(
                    cluster, benchControllerConfig());
            }
            // The storm run doubles as a DST soak: the full invariant
            // catalog plus the control-plane checks, every quiescent
            // point.
            std::unique_ptr<testing::InvariantChecker> invariants;
            if (run.storm) {
                invariants =
                    std::make_unique<testing::InvariantChecker>(cluster);
                if (autoscaler)
                    invariants->attachController(autoscaler.get());
            }

            try {
                res.report = cluster.run(trace);
                if (autoscaler)
                    autoscaler->fillReport(res.report);
                if (invariants)
                    invariants->finalCheck(res.report);
            } catch (const testing::InvariantViolation& v) {
                res.violated = true;
                res.violation = v.invariant() + " @ " +
                                Table::fmt(sim::usToSeconds(v.at()), 2) +
                                "s: " + v.detail();
                return res;
            }

            res.machineHours = paidMachineHours(res.report);
            res.attainment = core::sloAttainment(
                checker, res.report.requests, trace.size());
            res.accounted = res.report.requests.completed() +
                                res.report.rejected ==
                            trace.size();
            res.reportJson = core::reportToJson(res.report);

            const auto& ctl = res.report.control;
            res.row = {
                run.name,
                std::to_string(design.numPrompt) + "P+" +
                    std::to_string(design.numToken) + "T",
                Table::fmt(res.machineHours, 3),
                Table::fmt(res.report.promptPool.costDollars +
                               res.report.tokenPool.costDollars, 2),
                Table::fmt(res.report.promptPool.energyWh +
                               res.report.promptPool.idleEnergyWh +
                               res.report.tokenPool.energyWh +
                               res.report.tokenPool.idleEnergyWh, 0),
                Table::fmt(100.0 * res.attainment, 1),
                Table::fmt(res.report.requests.ttftStats().p99, 0),
                std::to_string(res.report.requests.completed()),
                std::to_string(res.report.rejected),
                ctl.enabled ? std::to_string(ctl.scaleUps) + "/" +
                                  std::to_string(ctl.scaleDowns) + "/" +
                                  std::to_string(ctl.roleFlexes) + "/" +
                                  std::to_string(ctl.brownoutTransitions)
                            : "-",
            };
            core::writeSinks(cluster, res.report, args.sinks,
                             static_cast<int>(index));
            return res;
        });

    Table table({"run", "fleet", "machine-h", "cost ($)", "energy (Wh)",
                 "SLO att (%)", "TTFT p99 (ms)", "completed", "shed",
                 "up/down/flex/brownout"});
    for (const AutoscaleResult& res : results) {
        if (res.violated) {
            std::printf("INVARIANT VIOLATION: %s\n", res.violation.c_str());
            continue;
        }
        table.addRow(res.row);
    }
    table.print();

    if (!report_out.empty()) {
        std::ofstream out(report_out);
        if (!out)
            sim::fatal("bench_autoscale: cannot open " + report_out);
        for (std::size_t i = 0; i < results.size(); ++i) {
            out << runs[i].name << '\n'
                << results[i].reportJson << '\n';
        }
        std::printf("wrote reports %s\n", report_out.c_str());
    }

    // --- Acceptance gates -------------------------------------------
    const AutoscaleResult& diurnal_auto = results[0];
    const AutoscaleResult& diurnal_peak = results[1];
    const AutoscaleResult& flash_auto = results[3];
    const AutoscaleResult& flash_trough = results[5];
    const AutoscaleResult& storm_auto = results[6];
    /** Attainment the controller may trade for the machine-hour win
     *  before the diurnal gate calls it a regression. */
    const double attainment_slack = 0.02;

    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].violated) {
            std::printf("FAIL: %s tripped an invariant\n",
                        runs[i].name.c_str());
            ok = false;
        } else if (!results[i].accounted) {
            std::printf("FAIL: %s lost requests (completed + shed != "
                        "submitted)\n", runs[i].name.c_str());
            ok = false;
        }
    }
    if (ok) {
        if (diurnal_auto.machineHours >= diurnal_peak.machineHours) {
            std::printf("FAIL: diurnal auto machine-hours (%.3f) not "
                        "below static peak (%.3f)\n",
                        diurnal_auto.machineHours,
                        diurnal_peak.machineHours);
            ok = false;
        }
        if (diurnal_auto.attainment <
            diurnal_peak.attainment - attainment_slack) {
            std::printf("FAIL: diurnal auto SLO attainment (%.3f) gave "
                        "up more than %.0f%% vs static peak (%.3f)\n",
                        diurnal_auto.attainment, 100.0 * attainment_slack,
                        diurnal_peak.attainment);
            ok = false;
        }
        if (flash_auto.attainment <= flash_trough.attainment) {
            std::printf("FAIL: flash auto SLO attainment (%.3f) not "
                        "above static trough (%.3f)\n",
                        flash_auto.attainment, flash_trough.attainment);
            ok = false;
        }
        if (!storm_auto.report.control.enabled ||
            storm_auto.report.control.ticks == 0) {
            std::printf("FAIL: storm run reported no controller "
                        "activity\n");
            ok = false;
        }
    }
    if (ok) {
        std::printf(
            "\nauto saved %.1f%% machine-hours vs static peak over the "
            "diurnal day at %.1f%% attainment (peak %.1f%%); under the "
            "flash crowd auto held %.1f%% attainment vs %.1f%% for the "
            "trough fleet; storm soak ran %llu controller ticks clean.\n",
            100.0 * (1.0 - diurnal_auto.machineHours /
                               diurnal_peak.machineHours),
            100.0 * diurnal_auto.attainment,
            100.0 * diurnal_peak.attainment,
            100.0 * flash_auto.attainment,
            100.0 * flash_trough.attainment,
            static_cast<unsigned long long>(
                storm_auto.report.control.ticks));
        return 0;
    }
    return 1;
}
