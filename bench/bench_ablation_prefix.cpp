/**
 * @file
 * Ablation of the session prefix-cache scheduling policy: multi-turn
 * chat sessions (paper SVII, "conversation back and forth") resend
 * their whole context every turn, so later turns are increasingly
 * prompt-heavy. The prefix policy routes a session's turns back to
 * the machine holding its KV prefix and prices a hit as prefill over
 * only the un-cached suffix; the default policy recomputes the full
 * context each turn. Swept across prompt/token pool balances to show
 * how reuse shifts the prompt-pool load the balance was sized for.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "sched/policy.h"
#include "workload/multi_turn.h"

int
main(int argc, char** argv)
{
    using namespace splitwise;
    bench::parseBenchArgs(argc, argv, "bench_ablation_prefix",
        "Ablation: session prefix-cache KV reuse vs full recompute",
        bench::kSinks | bench::kShort);
    using metrics::Table;
    const bench::BenchArgs& args = bench::benchArgs();

    // Session workload: the default multi-turn conversation shape.
    // Short mode shrinks the cluster and horizon, not the shape, so
    // the CI golden still exercises real truncation-free sessions.
    workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
    mt.thinkTimeMeanS = args.shortRun ? 2.0 : 5.0;
    const double sessions_per_s = args.shortRun ? 4.0 : 12.0;
    const double horizon_s = args.shortRun ? 8.0 : 30.0;

    const std::vector<std::pair<int, int>> balances =
        args.shortRun
            ? std::vector<std::pair<int, int>>{{5, 5}, {6, 4}}
            : std::vector<std::pair<int, int>>{
                  {17, 23}, {20, 20}, {25, 15}};

    bench::banner("Ablation: prefix-cache policy, multi-turn sessions @ " +
                  std::to_string(sessions_per_s).substr(0, 4) +
                  " sessions/s");
    Table table({"pools", "policy", "hit rate", "prompt reduction",
                 "prompt busy (s)", "token busy (s)", "TTFT p99 (ms)"});

    double best_reduction = 0.0;
    for (const auto& [num_prompt, num_token] : balances) {
        const core::ClusterDesign design =
            core::splitwiseHH(num_prompt, num_token);
        const std::string pools = std::to_string(num_prompt) + "P+" +
                                  std::to_string(num_token) + "T";
        for (const auto kind : {sched::PolicyKind::kDefault,
                                sched::PolicyKind::kPrefixCache}) {
            // Identical trace per cell: the generator is re-seeded so
            // the policy is the only variable in a row pair.
            workload::MultiTurnTraceGenerator gen(mt, 42);
            const workload::Trace trace =
                gen.generate(sessions_per_s, sim::secondsToUs(horizon_s));

            core::SimConfig config;
            config.policy.kind = kind;
            config.policy.maxContextTokens = mt.maxContextTokens;
            const auto report = core::run(bench::cliRunOptions(
                model::llama2_70b(), design, trace, config));

            const double total_prompt = static_cast<double>(
                report.requests.totalPromptTokens());
            std::string hit_rate = "-";
            std::string reduction = "-";
            if (report.prefixCache.enabled && report.submitted > 0) {
                const double rate =
                    100.0 * static_cast<double>(report.prefixCache.hits) /
                    static_cast<double>(report.submitted);
                const double saved =
                    total_prompt <= 0.0
                        ? 0.0
                        : 100.0 *
                              static_cast<double>(
                                  report.prefixCache.hitTokens) /
                              total_prompt;
                best_reduction = std::max(best_reduction, saved);
                hit_rate = Table::fmt(rate, 1) + "%";
                reduction = Table::fmt(saved, 1) + "%";
            }
            table.addRow({
                pools,
                sched::policyKindName(kind),
                hit_rate,
                reduction,
                Table::fmt(sim::usToSeconds(report.promptPool.busyUs), 1),
                Table::fmt(sim::usToSeconds(report.tokenPool.busyUs), 1),
                Table::fmt(report.requests.ttftStats().p99, 0),
            });
        }
    }
    table.print();

    std::printf("\nEvery turn after the first resends the session's"
                " accumulated context; the prefix policy skips prefill"
                " over the cached part (%.0f%% of all prompt tokens at"
                " these session lengths), unloading the prompt pool and"
                " cutting the TTFT tail. The default policy recomputes"
                " it from scratch on whichever machine JSQ picks.\n",
                best_reduction);
    return 0;
}
