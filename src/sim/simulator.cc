#include "sim/simulator.h"

#include <string>

#include "sim/log.h"

namespace splitwise::sim {

void
Simulator::panicPast(TimeUs time) const
{
    panic("Simulator: scheduling at t=" + std::to_string(time) +
          "us, before now=" + std::to_string(now_) + "us");
}

void
Simulator::panicNegativeDelay() const
{
    panic("Simulator: scheduling with negative delay");
}

Simulator::HookId
Simulator::addTimeAdvanceHook(TimeAdvanceHook hook)
{
    hooks_.push_back(std::move(hook));
    return hooks_.size() - 1;
}

void
Simulator::removeTimeAdvanceHook(HookId id)
{
    if (id < hooks_.size())
        hooks_[id] = nullptr;
}

void
Simulator::fireTimeAdvance(TimeUs next)
{
    for (const auto& hook : hooks_) {
        if (hook)
            hook(next);
    }
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    Event ev = queue_.pop();
    if (ev.time > now_)
        fireTimeAdvance(ev.time);
    now_ = ev.time;
    ev.action();
    ++executed_;
    return true;
}

void
Simulator::run()
{
    while (step()) {
    }
}

}  // namespace splitwise::sim
