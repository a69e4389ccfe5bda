#ifndef SPLITWISE_CONTROL_AUTOSCALER_H_
#define SPLITWISE_CONTROL_AUTOSCALER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "control/slo_monitor.h"
#include "core/cluster.h"
#include "sim/time.h"

namespace splitwise::control {

/** One control-plane decision, for reports and DST invariants. */
enum class ActionType {
    /** Unpark scheduled; the provisioning lead time is running. */
    kScaleUpStart,
    /** Machine restored to routing after its lead time. */
    kScaleUp,
    /** Machine retired from routing, draining toward park. */
    kScaleDownStart,
    /** Drained machine powered off. */
    kScaleDown,
    /** Machine retired from routing, draining toward a role flex. */
    kFlexStart,
    /** Drained machine restored under the opposite role. */
    kFlex,
    /** Admission brownout level moved (by exactly one step). */
    kBrownout,
    /** Power-cap fraction assigned to a machine. */
    kPowerCap,
};

/** Human-readable action name. */
const char* actionTypeName(ActionType type);

struct ControlAction {
    sim::TimeUs at = 0;
    ActionType type = ActionType::kScaleUp;
    int machine = -1;
    core::PoolType pool = core::PoolType::kPrompt;
    int brownoutLevel = 0;
    double capFraction = 1.0;
};

/** Controller tunables; the defaults suit the bench scenarios. */
struct AutoscalerConfig {
    /** Controller evaluation period. */
    sim::TimeUs tickIntervalUs = sim::secondsToUs(5);
    /** Sliding window the SLO signals are computed over. */
    sim::TimeUs slidingWindowUs = sim::secondsToUs(30);
    /** Cold-start delay between an unpark decision and the machine
     *  accepting work (cloud provisioning / boot / model load). */
    sim::TimeUs provisioningLeadUs = sim::secondsToUs(15);
    /** Minimum spacing between scale actions on one pool - the
     *  hysteresis that forbids oscillation. */
    sim::TimeUs scaleCooldownUs = sim::secondsToUs(45);
    /** Minimum spacing between brownout-level moves. */
    sim::TimeUs brownoutCooldownUs = sim::secondsToUs(20);

    /** Scale the prompt pool up when windowed P99 TTFT slowdown
     *  crosses this (Table VI P99 limit is 6). */
    double ttftScaleUpSlowdown = 4.0;
    /** Scale the token pool up when windowed P99 TBT slowdown
     *  crosses this (Table VI P99 limit is 5). */
    double tbtScaleUpSlowdown = 3.0;
    /** Queued prompt tokens per routed prompt machine that also
     *  triggers prompt scale-up (leading indicator: queue growth
     *  shows up before completions do). */
    std::int64_t queuedTokensHighPerMachine = 6000;
    /** Mean KV utilization across the token pool that also triggers
     *  token scale-up. */
    double kvHighUtilization = 0.80;

    /** Scale a pool down only when windowed slowdowns sit below
     *  these healthy margins... */
    double ttftScaleDownSlowdown = 1.5;
    double tbtScaleDownSlowdown = 1.5;
    /** ...and the pool's own load signal is this idle. */
    std::int64_t queuedTokensLowPerMachine = 500;
    double kvLowUtilization = 0.25;

    /** Escalate the brownout ladder when queued prompt tokens per
     *  routed machine cross this... */
    std::int64_t brownoutQueuedTokensPerMachine = 20000;
    /** ...or windowed P99 TTFT slowdown crosses this. */
    double brownoutTtftSlowdown = 8.0;
    /** De-escalate once both signals drop below this fraction of
     *  their trigger (hysteresis band). */
    double brownoutRecoverFraction = 0.4;

    /** Facility power budget, watts; 0 = unlimited. Enforced with
     *  Fig. 9 power caps, token pool first (caps there are nearly
     *  free), prompt pool only as a last resort. */
    double powerBudgetWatts = 0.0;
    /** Deepest cap ever placed on token-origin machines. */
    double tokenCapFloor = 0.5;
    /** Deepest cap ever placed on prompt-origin machines (higher:
     *  prompt latency pays nearly proportionally, Fig. 9). */
    double promptCapFloor = 0.7;

    /** Never shrink a pool's routed machines below these. */
    std::size_t minPromptMachines = 1;
    std::size_t minTokenMachines = 1;

    /** SLO set used for the report's attainment number. */
    core::SloSet slos;
};

/**
 * The online control plane (ISSUE 6): a periodic controller event
 * inside the simulation that watches telemetry the cluster already
 * exposes and issues live actions against it.
 *
 *   scale down:  retire -> drain -> park        (stop paying)
 *   scale up:    unpark after lead time -> restore
 *   role flex:   retire -> drain -> restore under the opposite role
 *   brownout:    admission ladder L0..L3, one step per move
 *   power caps:  Fig. 9 caps enforcing a facility budget
 *
 * Construct after the Cluster, before run(). When no autoscaler is
 * attached the cluster's behaviour is byte-identical to before this
 * subsystem existed: the controller's only coupling is the events it
 * posts.
 */
class Autoscaler {
  public:
    Autoscaler(core::Cluster& cluster, AutoscalerConfig config = {});

    Autoscaler(const Autoscaler&) = delete;
    Autoscaler& operator=(const Autoscaler&) = delete;

    const AutoscalerConfig& config() const { return config_; }

    /** Every decision taken, in simulated-time order. */
    const std::vector<ControlAction>& actions() const { return actions_; }

    /** Controller evaluations so far. */
    std::uint64_t ticks() const { return ticks_; }

    /**
     * Fill @p report's control section (call after Cluster::run()):
     * action counters, machine-hours/$/energy totals from the pool
     * reports, and Table VI SLO attainment over all submissions.
     */
    void fillReport(core::RunReport& report) const;

  private:
    /** What a draining (retired) machine becomes once empty. */
    struct DrainIntent {
        /** True: park. False: restore under flexTo. */
        bool park = true;
        core::PoolType flexTo = core::PoolType::kPrompt;
    };

    void tick();

    /** Park or flex-restore retired machines that finished draining. */
    void completeDrains();

    /** True once nothing in the simulation references the machine. */
    bool drained(const engine::Machine& m) const;

    void enforcePowerBudget();
    void stepBrownout(const WindowStats& stats);
    void scalePools(const WindowStats& stats);

    /** The unpark lead time elapsed: bring @p machine_id into @p pool. */
    void finishUnpark(int machine_id, core::PoolType pool);

    /** Routed machines whose origin is @p pool. */
    std::size_t routedOf(core::PoolType pool) const;

    /** Scale @p pool up by one machine: unpark standby if possible,
     *  else flex one from the (healthy) opposite pool. */
    void scaleUp(core::PoolType pool, bool opposite_strained);
    void scaleDown(core::PoolType pool);

    /** True when powering @p candidate on for @p as stays inside the
     *  power budget even at the deepest caps. */
    bool budgetAdmits(const engine::Machine& candidate,
                      core::PoolType as) const;

    void record(ActionType type, int machine, core::PoolType pool,
                int level = 0, double cap = 1.0);

    core::Cluster& cluster_;
    AutoscalerConfig config_;
    SloMonitor monitor_;

    /** Retired machines draining toward park or flex, by id
     *  (ordered, so drains complete lowest id first). */
    std::map<int, DrainIntent> pendingDrains_;
    /** Machines whose unpark lead time is running. */
    std::set<int> pendingUnparks_;
    /** In-flight scale-ups per pool (prompt, token), so one surge
     *  does not trigger a fleet-wide unpark. */
    std::size_t pendingUpPrompt_ = 0;
    std::size_t pendingUpToken_ = 0;

    /** "Long ago" sentinel: halved to keep now-minus-last overflow
     *  free. Fresh controllers act on the first firing tick. */
    static constexpr sim::TimeUs kLongAgo = INT64_MIN / 2;
    sim::TimeUs lastScalePrompt_ = kLongAgo;
    sim::TimeUs lastScaleToken_ = kLongAgo;
    sim::TimeUs lastBrownoutMove_ = kLongAgo;
    sim::TimeUs brownoutSince_ = 0;
    sim::TimeUs brownoutUs_ = 0;
    int maxBrownoutLevel_ = 0;

    std::vector<ControlAction> actions_;
    std::uint64_t ticks_ = 0;
    std::uint64_t scaleUps_ = 0;
    std::uint64_t scaleDowns_ = 0;
    std::uint64_t roleFlexes_ = 0;
    std::uint64_t brownoutTransitions_ = 0;
    std::uint64_t powerCapChanges_ = 0;
};

}  // namespace splitwise::control

#endif  // SPLITWISE_CONTROL_AUTOSCALER_H_
