#ifndef SPLITWISE_TESTING_INVARIANTS_H_
#define SPLITWISE_TESTING_INVARIANTS_H_

/**
 * @file
 * Continuous cross-layer invariant checking for deterministic
 * simulation testing (DST).
 *
 * The InvariantChecker attaches to the simulator's time-advance hook,
 * which fires exactly when the clock is about to move: every event at
 * earlier timestamps has fully executed, so the cluster is at a
 * quiescent point and conservation laws must hold. Checking there -
 * rather than inside event handlers - avoids false positives from
 * transiently inconsistent mid-timestamp state (e.g. a request whose
 * phase changed but whose KV release runs two callbacks later in the
 * same instant).
 *
 * The catalog of checked invariants is documented in DESIGN.md
 * ("DST invariant catalog"); each check names itself so a violation
 * pinpoints the broken law, the simulated time, and the offender.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "control/autoscaler.h"
#include "core/cluster.h"

namespace splitwise::testing {

/** A broken conservation law: which one, when, and the evidence. */
class InvariantViolation : public std::runtime_error {
  public:
    InvariantViolation(std::string invariant, sim::TimeUs at,
                       std::string detail);

    /** Catalog name of the violated invariant (e.g. "kv-orphan"). */
    const std::string& invariant() const { return invariant_; }

    /** Simulated time of the quiescent point that failed. */
    sim::TimeUs at() const { return at_; }

    /** Human-readable evidence. */
    const std::string& detail() const { return detail_; }

  private:
    std::string invariant_;
    sim::TimeUs at_;
    std::string detail_;
};

/** Checking cadence knobs. */
struct InvariantOptions {
    /**
     * Check every Nth clock advance (1 = every quiescent point).
     * Soak drivers raise this to trade detection latency for speed;
     * the final post-run check always runs in full.
     */
    int checkEveryNthAdvance = 1;
    /**
     * Run the span-timeline structural sweep only every Nth
     * invariant check (the final check always sweeps). Span defects
     * cannot self-heal - segments are append-only, a gap or leaked
     * timeline persists - so thinning trades detection *latency*,
     * not detection, for keeping the spans-on DST overhead small.
     */
    int spanCheckEveryNth = 64;
};

/**
 * Armed invariant checking over one Cluster run.
 *
 * Construct after the Cluster (and after any fault plan / bug hooks
 * are installed) and before run(); destroy before the Cluster. The
 * checker walks the cluster's live requests, machines, scheduler,
 * transfer engine, and telemetry at every quiescent point and throws
 * InvariantViolation out of Cluster::run() on the first broken law.
 *
 * Checking is strictly opt-in: benchmarks that never construct a
 * checker pay only an empty hook-vector test per clock advance.
 */
class InvariantChecker {
  public:
    explicit InvariantChecker(core::Cluster& cluster,
                              InvariantOptions options = {});
    ~InvariantChecker();

    InvariantChecker(const InvariantChecker&) = delete;
    InvariantChecker& operator=(const InvariantChecker&) = delete;

    /** Run the full catalog at the current simulated time. */
    void checkNow();

    /**
     * Also check the control plane's action log: scale actions on
     * one pool spaced at least the configured cooldown apart,
     * brownout moves of exactly one level inside [0, 3] respecting
     * their own cooldown, and the scheduler's ladder level matching
     * the controller's. Attach after constructing the Autoscaler.
     */
    void attachController(const control::Autoscaler* controller)
    {
        controller_ = controller;
    }

    /**
     * Post-run balance checks: every request terminal, the report's
     * aggregates match the live state, all KV released, no open
     * spans, no in-flight transfers.
     */
    void finalCheck(const core::RunReport& report);

    /** Quiescent-point checks executed so far. */
    std::uint64_t checksRun() const { return checksRun_; }

  private:
    /** Last-seen per-request state for stale-event detection. */
    struct Snapshot {
        engine::RequestPhase phase = engine::RequestPhase::kPromptQueued;
        std::int64_t generated = 0;
        std::uint32_t epoch = 0;
        int restarts = 0;
        int preemptions = 0;
        sim::TimeUs doneTime = -1;
    };

    [[noreturn]] void violate(const char* invariant,
                              const std::string& detail) const;

    void onAdvance(sim::TimeUs next);
    void refreshIndex();
    void checkRequests();
    void checkMachines();
    /** Check @p req's live KV holds and file them in holders_. */
    void collectHolds(const engine::LiveRequest& req);
    /** Each machine's allocator against the holds in holders_. */
    void checkKv();
    void checkController();
    void checkTransfers();
    void checkTelemetry();
    /** Span-tracker balance + structural integrity (span-balance). */
    void checkSpanTimelines();
    void checkEventQueue();

    core::Cluster& cluster_;
    InvariantOptions options_;
    const control::Autoscaler* controller_ = nullptr;
    /** Control actions already validated. */
    std::size_t actionCursor_ = 0;
    sim::TimeUs lastInitPrompt_ = -1;
    sim::TimeUs lastInitToken_ = -1;
    int lastBrownoutLevel_ = 0;
    sim::TimeUs lastBrownoutAt_ = -1;
    sim::Simulator::HookId hook_;
    std::uint64_t advances_ = 0;
    std::uint64_t checksRun_ = 0;
    /** Modular counter behind InvariantOptions::spanCheckEveryNth. */
    std::uint64_t spanCheckTick_ = 0;
    sim::TimeUs lastAdvance_ = -1;
    engine::KvTransferEngine::Stats lastTransferStats_;
    /**
     * Pool version liveIds_ was built against; rebuilt whenever the
     * pool acquires or releases a slot (recycling means size alone
     * cannot detect churn).
     */
    std::uint64_t poolVersion_ = ~0ull;
    std::unordered_set<std::uint64_t> liveIds_;
    /** Per machine: live requests holding KV there, filed by
     *  checkRequests(). */
    std::vector<std::vector<const engine::LiveRequest*>> holders_;
    std::unordered_map<std::uint64_t, Snapshot> lastSeen_;
};

}  // namespace splitwise::testing

#endif  // SPLITWISE_TESTING_INVARIANTS_H_
