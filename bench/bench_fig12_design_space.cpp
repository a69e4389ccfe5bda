/**
 * @file
 * Regenerates paper Fig. 12: the two-dimensional provisioning design
 * space for a Splitwise-HH cluster serving the coding workload at a
 * target peak throughput, marking SLO-feasible cells and the
 * cost-optimal configuration.
 *
 * The sweep fans out across `--jobs N` workers (default
 * hardware_concurrency); `--jobs 1` is the exact serial path and
 * produces byte-identical results. `--report-out=PATH` dumps every
 * cell's reportToJson as a JSON array - the artifact the CI
 * determinism gate byte-compares between job counts. `--spans on`
 * tracks spans in every cell (each report then carries its
 * breakdown); it is the A/B switch of the span-overhead probe in
 * tools/perf_baseline.sh.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_common.h"

int
main(int argc, char** argv)
{
    using namespace splitwise;
    using provision::DesignKind;

    std::string report_out;
    auto parser = bench::benchParser(
        "bench_fig12_design_space",
        "Paper Fig. 12: Splitwise-HH provisioning design-space sweep "
        "with SLO-feasible and cost-optimal marking",
        bench::kSpans | bench::kJobs);
    parser.addString("--report-out", &report_out,
                     "dump every cell's report as a JSON array (the CI "
                     "determinism-gate artifact)");
    parser.parse(argc, argv);

    const double target_rps = 70.0;  // the paper's target peak load
    provision::ProvisionerOptions options;
    options.traceDuration = sim::secondsToUs(25);
    options.jobs = bench::effectiveJobs();
    options.captureReports = !report_out.empty();
    bench::applyTelemetryCli(options.simConfig);
    provision::Provisioner prov(model::llama2_70b(), workload::coding(),
                                options);

    const std::vector<int> prompt_counts = {7, 8, 9, 10, 11, 13, 17, 21, 27};
    const std::vector<int> token_counts = {1, 2, 3, 4, 6};

    bench::banner("Fig. 12: Splitwise-HH design space, coding @ " +
                  std::to_string(static_cast<int>(target_rps)) + " RPS");
    const auto t0 = std::chrono::steady_clock::now();
    const auto cells = prov.sweep(DesignKind::kSplitwiseHH, prompt_counts,
                                  token_counts, target_rps);
    const double sweep_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Grid view: rows = prompt machines, columns = token machines.
    std::printf("rows: prompt machines; cols: token machines;"
                " cell: meets all SLOs ('+'), not ('.'), error ('E')\n\n"
                "      ");
    for (int nt : token_counts)
        std::printf("%4dT", nt);
    std::printf("\n");
    const provision::SweepCell* best = nullptr;
    for (int np : prompt_counts) {
        std::printf("%4dP ", np);
        for (int nt : token_counts) {
            const provision::SweepCell* cell = nullptr;
            for (const auto& c : cells) {
                if (c.numPrompt == np && c.numToken == nt)
                    cell = &c;
            }
            std::printf("%4s ", cell->error ? "E"
                                            : (cell->pass ? "+" : "."));
            if (cell->pass && (!best || cell->costPerHour < best->costPerHour))
                best = cell;
        }
        std::printf("\n");
    }

    if (best) {
        std::printf("\nCost-optimal (*): %dP, %dT at $%.0f/hr\n",
                    best->numPrompt, best->numToken, best->costPerHour);
    } else {
        std::printf("\nNo feasible cell in the probed grid\n");
    }
    std::printf("Paper: the iso-throughput cost-optimal Splitwise-HH for"
                " coding at 70 RPS is 27 prompt + 3 token machines\n");
    // Wall-clock and the report path go to stderr, so stdout is the
    // same for every --jobs and --report-out.
    std::fprintf(stderr, "sweep wall-clock: %.3f s (%zu cells, jobs=%d)\n",
                 sweep_s, cells.size(), options.jobs);

    if (!report_out.empty()) {
        std::ofstream out(report_out);
        if (!out)
            sim::fatal("cannot open " + report_out);
        out << "[\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].error)
                out << "{\"error\": true}";
            else
                out << cells[i].reportJson;
            out << (i + 1 < cells.size() ? ",\n" : "\n");
        }
        out << "]\n";
        std::fprintf(stderr, "wrote per-cell reports to %s\n",
                     report_out.c_str());
    }
    return 0;
}
