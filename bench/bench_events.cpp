/**
 * @file
 * Head-to-head events/sec benchmark of the event engine: the pooled
 * 4-ary heap (sim::EventQueue) against an embedded copy of the legacy
 * queue it replaced (std::priority_queue + tombstone sets +
 * std::function actions).
 *
 * Workloads:
 *   churn   64-event schedule bursts drained to empty (the
 *           microbench shape the simulator's steady state reduces to)
 *   ring    a deep queue (4096 pending) in pop-one/push-one steady
 *           state - the end-to-end cluster-simulation regime
 *   large   churn with 96-byte captures: inline for EventAction,
 *           a heap allocation per event for std::function
 *
 * Output is one machine-readable line per (impl, workload) pair:
 *
 *   EVENTS_BENCH impl=<new|legacy> workload=<w> events=<n> \
 *       seconds=<s> events_per_sec=<r>
 *
 * plus a SPEEDUP line per workload; tools/perf_baseline.sh parses
 * these into BENCH_PR5.json and CI gates on the churn ratio.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "sim/event_queue.h"

namespace {

using namespace splitwise;

/**
 * The pre-PR event queue, verbatim except for the name: a binary
 * priority_queue of full Event values with lazy cancellation through
 * a cancelled-id tombstone set and a live-id set, actions type-erased
 * into std::function.
 */
class LegacyEventQueue {
  public:
    struct LegacyEvent {
        sim::TimeUs time = 0;
        int priority = 0;
        std::uint64_t id = 0;
        std::function<void()> action;
    };

    std::uint64_t
    schedule(sim::TimeUs time, std::function<void()> action, int priority = 0)
    {
        LegacyEvent ev;
        ev.time = time;
        ev.priority = priority;
        ev.id = nextId_++;
        ev.action = std::move(action);
        const std::uint64_t id = ev.id;
        heap_.push(std::move(ev));
        live_.insert(id);
        return id;
    }

    void
    cancel(std::uint64_t id)
    {
        if (live_.erase(id) > 0)
            cancelled_.insert(id);
    }

    bool empty() const { return live_.empty(); }

    LegacyEvent
    pop()
    {
        skipDead();
        LegacyEvent ev = heap_.top();
        heap_.pop();
        live_.erase(ev.id);
        return ev;
    }

  private:
    struct EventLater {
        bool
        operator()(const LegacyEvent& a, const LegacyEvent& b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.id > b.id;
        }
    };

    void
    skipDead()
    {
        while (!heap_.empty()) {
            auto it = cancelled_.find(heap_.top().id);
            if (it == cancelled_.end())
                break;
            cancelled_.erase(it);
            heap_.pop();
        }
    }

    std::priority_queue<LegacyEvent, std::vector<LegacyEvent>, EventLater>
        heap_;
    std::unordered_set<std::uint64_t> cancelled_;
    std::unordered_set<std::uint64_t> live_;
    std::uint64_t nextId_ = 0;
};

/** Fired-callback side effect so actions cannot be optimized away. */
std::uint64_t g_fired = 0;

/** A 96-byte capture: inline in EventAction, heap in std::function. */
struct LargeCapture {
    std::uint64_t payload[11] = {};
    std::uint64_t* sink = nullptr;

    void operator()() const { *sink += payload[0]; }
};

struct WorkloadResult {
    std::uint64_t events = 0;
    double seconds = 0.0;
};

template <typename Fn>
WorkloadResult
timed(std::uint64_t events, Fn&& body)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    return {events, std::chrono::duration<double>(t1 - t0).count()};
}

// --- churn: 64-event bursts drained to empty ------------------------

template <typename Queue>
WorkloadResult
runChurn(Queue& queue, std::uint64_t iters)
{
    return timed(iters * 64, [&] {
        sim::TimeUs t = 0;
        for (std::uint64_t it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i)
                queue.post(t + (i * 37) % 1000, [] { ++g_fired; });
            while (!queue.empty())
                queue.pop().action();
            t += 1000;
        }
    });
}

WorkloadResult
runChurnLegacy(LegacyEventQueue& queue, std::uint64_t iters)
{
    return timed(iters * 64, [&] {
        sim::TimeUs t = 0;
        for (std::uint64_t it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i)
                queue.schedule(t + (i * 37) % 1000, [] { ++g_fired; });
            while (!queue.empty())
                queue.pop().action();
            t += 1000;
        }
    });
}

// --- ring: deep queue in pop-one/push-one steady state --------------

template <typename Queue, typename Schedule>
WorkloadResult
runRing(Queue& queue, Schedule&& schedule, std::uint64_t pops)
{
    constexpr int kDepth = 4096;
    sim::TimeUs t = 0;
    for (int i = 0; i < kDepth; ++i)
        schedule(t + (i * 37) % 50000);
    return timed(pops, [&] {
        for (std::uint64_t i = 0; i < pops; ++i) {
            auto ev = queue.pop();
            ev.action();
            t = ev.time;
            schedule(t + 1 + (i * 131) % 50000);
        }
    });
}

// --- large: churn with 96-byte captures -----------------------------

WorkloadResult
runLargeNew(sim::EventQueue& queue, std::uint64_t iters)
{
    return timed(iters * 64, [&] {
        sim::TimeUs t = 0;
        LargeCapture capture;
        capture.payload[0] = 1;
        capture.sink = &g_fired;
        for (std::uint64_t it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i)
                queue.post(t + (i * 37) % 1000, capture);
            while (!queue.empty())
                queue.pop().action();
            t += 1000;
        }
    });
}

WorkloadResult
runLargeLegacy(LegacyEventQueue& queue, std::uint64_t iters)
{
    return timed(iters * 64, [&] {
        sim::TimeUs t = 0;
        LargeCapture capture;
        capture.payload[0] = 1;
        capture.sink = &g_fired;
        for (std::uint64_t it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i)
                queue.schedule(t + (i * 37) % 1000, capture);
            while (!queue.empty())
                queue.pop().action();
            t += 1000;
        }
    });
}

double
report(const std::string& impl, const std::string& workload,
       const WorkloadResult& result)
{
    const double rate =
        result.seconds > 0 ? static_cast<double>(result.events) /
                                 result.seconds
                           : 0.0;
    std::printf("EVENTS_BENCH impl=%s workload=%s events=%llu "
                "seconds=%.6f events_per_sec=%.0f\n",
                impl.c_str(), workload.c_str(),
                static_cast<unsigned long long>(result.events),
                result.seconds, rate);
    return rate;
}

void
speedup(const std::string& workload, double new_rate, double legacy_rate)
{
    std::printf("SPEEDUP workload=%s ratio=%.2f\n", workload.c_str(),
                legacy_rate > 0 ? new_rate / legacy_rate : 0.0);
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::parseBenchArgs(
        argc, argv, "bench_events",
        "events/sec of the pooled-heap event engine vs the legacy "
        "priority_queue+tombstone implementation",
        bench::kShort);

    const bool short_run = bench::benchArgs().shortRun;
    const std::uint64_t iters = short_run ? 20'000 : 120'000;
    const std::uint64_t ring_pops = short_run ? 500'000 : 4'000'000;

    bench::banner("event engine: new (pooled 4-ary heap) vs "
                  "legacy (priority_queue + tombstones)");

    // Warm both implementations once so pool growth / allocator
    // warm-up is off the clock for every measured workload.
    {
        sim::EventQueue warm_new;
        LegacyEventQueue warm_legacy;
        runChurn(warm_new, 2'000);
        runChurnLegacy(warm_legacy, 2'000);
    }

    double new_churn = 0.0;
    {
        sim::EventQueue queue;
        queue.reserve(64);
        new_churn = report("new", "churn", runChurn(queue, iters));
    }
    double legacy_churn = 0.0;
    {
        LegacyEventQueue queue;
        legacy_churn = report("legacy", "churn", runChurnLegacy(queue, iters));
    }
    speedup("churn", new_churn, legacy_churn);

    double new_ring = 0.0;
    {
        sim::EventQueue queue;
        queue.reserve(4096 + 1);
        new_ring = report(
            "new", "ring",
            runRing(queue,
                    [&](sim::TimeUs t) { queue.post(t, [] { ++g_fired; }); },
                    ring_pops));
    }
    double legacy_ring = 0.0;
    {
        LegacyEventQueue queue;
        legacy_ring = report(
            "legacy", "ring",
            runRing(queue,
                    [&](sim::TimeUs t) {
                        queue.schedule(t, [] { ++g_fired; });
                    },
                    ring_pops));
    }
    speedup("ring", new_ring, legacy_ring);

    double new_large = 0.0;
    {
        sim::EventQueue queue;
        queue.reserve(64);
        new_large = report("new", "large", runLargeNew(queue, iters));
    }
    double legacy_large = 0.0;
    {
        LegacyEventQueue queue;
        legacy_large = report("legacy", "large", runLargeLegacy(queue, iters));
    }
    speedup("large", new_large, legacy_large);

    std::printf("\nfired=%llu (side-effect sink)\n",
                static_cast<unsigned long long>(g_fired));
    return 0;
}
