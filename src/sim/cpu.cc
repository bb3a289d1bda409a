#include "sim/cpu.h"

#include <algorithm>

#include "trace/profile.h"

namespace mirage::sim {

Cpu::Cpu(Engine &engine, std::string name)
    : engine_(engine), name_(std::move(name)),
      trace_(engine.telemetry(), name_)
{
}

void
Cpu::submit(Duration cost, Callback done, const char *what,
            trace::Cat cat)
{
    TimePoint start = std::max(engine_.now(), free_at_);
    free_at_ = start + cost;
    busy_ += cost;
    if (stats_) {
        stats_->run_ns.inc(u64(cost.ns()));
        stats_->steal_ns.inc(u64((start - engine_.now()).ns()));
    }
    if (auto *p = engine_.profiler(); p && p->enabled())
        p->charge(what, u64(cost.ns()), start.ns());
    if (auto *tr = trace_.recorder())
        tr->span(cat, what, start, cost, trace_.track());
    if (done)
        engine_.at(free_at_, std::move(done));
}

void
Cpu::charge(Duration cost, const char *what, trace::Cat cat)
{
    submit(cost, nullptr, what, cat);
}

TimePoint
Cpu::finishAt(Duration cost, const char *what, trace::Cat cat)
{
    charge(cost, what, cat);
    return free_at_;
}

TimePoint
Cpu::freeAt() const
{
    return std::max(engine_.now(), free_at_);
}

double
Cpu::utilisation(TimePoint t0, TimePoint t1) const
{
    if (t1 <= t0)
        return 0.0;
    double u = busy_.toSecondsF() / (t1 - t0).toSecondsF();
    return std::min(u, 1.0);
}

} // namespace mirage::sim
