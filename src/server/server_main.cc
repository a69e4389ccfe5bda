/**
 * @file
 * splitwise_server: the live serving front-end binary.
 *
 * Serves the HTTP completion API (see server/serving.h) over one
 * cluster run. `--clock wall` sleeps until the next simulation event
 * and is preempted by new arrivals — real-time serving; `--clock
 * sim` runs virtual time at full speed — what the CI smoke uses.
 * `--record-out` captures the live session for bit-exact replay;
 * `--replay` re-runs such a capture offline under the invariant
 * checker and writes the report, so
 *     serve --record-out a.json --report-out live.json
 *     replay a.json --report-out replay.json
 * must produce byte-identical reports.
 *
 * Exits 0 only when every accepted request resolved (no leaks).
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "bench/arg_parser.h"
#include "core/designs.h"
#include "core/ingress.h"
#include "core/recording.h"
#include "core/report_io.h"
#include "core/run.h"
#include "model/llm_config.h"
#include "sched/policy.h"
#include "server/http_server.h"
#include "server/serving.h"
#include "sim/clock.h"
#include "sim/log.h"
#include "testing/invariants.h"
#include "workload/trace_stream.h"

namespace {

splitwise::core::Ingress* g_signal_ingress = nullptr;

void
onSignal(int)
{
    // shutdown() is async-signal-unsafe in principle (mutex), but
    // the handler only runs in the interactive wall-clock mode where
    // a rare self-deadlock beats losing the drain-and-report path.
    if (g_signal_ingress)
        g_signal_ingress->shutdown();
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace splitwise;

    int port = 8080;
    std::string clock_name = "wall";
    std::string policy_name = "default";
    sched::PolicyKind policy = sched::PolicyKind::kDefault;
    int prompt_machines = 1;
    int token_machines = 1;
    std::string record_out;
    std::string report_out;
    std::string replay_path;
    bool check_invariants = false;

    bench::ArgParser parser(
        "splitwise_server",
        "live HTTP serving front-end over the splitwise cluster");
    parser.addInt("--port", &port,
                  "listen port on 127.0.0.1 (0 = ephemeral; the bound "
                  "port is printed)");
    parser.addString("--clock", &clock_name,
                     "serving clock: wall (real-time) or sim (virtual "
                     "time, full speed)");
    parser.addString("--policy", &policy_name,
                     "scheduling policy (" + sched::policyNames() + ")");
    parser.addInt("--prompt-machines", &prompt_machines,
                  "prompt-pool machine count");
    parser.addInt("--token-machines", &token_machines,
                  "token-pool machine count");
    parser.addString("--record-out", &record_out,
                     "capture the live session for bit-exact replay");
    parser.addString("--report-out", &report_out,
                     "write the run report JSON");
    parser.addString("--replay", &replay_path,
                     "re-run a recorded session offline instead of "
                     "serving");
    parser.addFlag("--check-invariants", &check_invariants,
                   "replay under the DST invariant checker");
    parser.addValidator([&] {
        if (clock_name != "wall" && clock_name != "sim")
            sim::fatal("--clock must be wall or sim");
        if (!sched::parsePolicyKind(policy_name, &policy))
            sim::fatal("--policy: unknown policy '" + policy_name +
                       "' (known: " + sched::policyNames() + ")");
        if (prompt_machines < 1 || token_machines < 0)
            sim::fatal("bad machine counts");
        if (port < 0 || port > 65535)
            sim::fatal("--port out of range");
    });
    parser.parse(argc, argv);

    core::RunOptions options;
    options.llm = model::llama2_70b();
    options.design = token_machines > 0
                         ? core::splitwiseHH(prompt_machines, token_machines)
                         : core::baselineH100(prompt_machines);
    options.sim.policy.kind = policy;

    if (!replay_path.empty()) {
        const core::SessionRecording recording =
            core::SessionRecording::load(replay_path);
        // Built by hand (not core::replay) so the invariant checker
        // can attach to the cluster before the run starts.
        core::Cluster cluster(options.llm, options.design, options.sim);
        std::unique_ptr<testing::InvariantChecker> checker;
        if (check_invariants)
            checker = std::make_unique<testing::InvariantChecker>(cluster);
        for (const auto& cancel : recording.cancels)
            cluster.scheduleCancel(cancel.requestId, cancel.at);
        workload::VectorTraceStream stream(recording.requests);
        const core::RunReport report = cluster.run(stream);
        if (checker)
            checker->finalCheck(report);
        if (!report_out.empty())
            core::writeReportJson(report, report_out);
        std::printf("replayed %zu requests, %zu cancels, %lld us "
                    "simulated%s\n",
                    recording.requests.size(), recording.cancels.size(),
                    static_cast<long long>(report.simulatedUs),
                    check_invariants ? " (invariants OK)" : "");
        return 0;
    }

    core::Ingress ingress;
    core::SessionRecording capture;

    g_signal_ingress = &ingress;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    server::CompletionService service(ingress);
    server::HttpServer http(
        [&service](const server::HttpRequest& request,
                   server::ResponseWriter& writer) {
            service.handle(request, writer);
        });
    if (!http.start(port)) {
        std::fprintf(stderr, "cannot bind 127.0.0.1:%d\n", port);
        return 1;
    }
    std::printf("listening port=%d clock=%s policy=%s design=%s\n",
                http.port(), clock_name.c_str(), policy_name.c_str(),
                options.design.name.c_str());
    std::fflush(stdout);

    core::RunReport report;
    if (clock_name == "sim") {
        sim::SimClock clock;
        report = core::runLive(options, ingress, clock,
                               record_out.empty() ? nullptr : &capture);
    } else {
        sim::WallClock clock;
        report = core::runLive(options, ingress, clock,
                               record_out.empty() ? nullptr : &capture);
    }

    http.stop();
    g_signal_ingress = nullptr;

    if (!record_out.empty()) {
        capture.save(record_out);
        std::printf("recorded %zu requests, %zu cancels -> %s\n",
                    capture.requests.size(), capture.cancels.size(),
                    record_out.c_str());
    }
    if (!report_out.empty())
        core::writeReportJson(report, report_out);

    const std::uint64_t leaked = ingress.unresolved();
    std::printf("served accepted=%llu completed=%llu rejected=%llu "
                "shutdown_rejected=%llu leaked=%llu\n",
                static_cast<unsigned long long>(ingress.accepted()),
                static_cast<unsigned long long>(ingress.completed()),
                static_cast<unsigned long long>(
                    ingress.rejectedByAdmission()),
                static_cast<unsigned long long>(
                    ingress.rejectedAtShutdown()),
                static_cast<unsigned long long>(leaked));
    return leaked == 0 ? 0 : 1;
}
