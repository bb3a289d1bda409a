#include "runtime/scheduler.h"

#include "sim/cost_model.h"

namespace mirage::rt {

Scheduler::Config::Config()
    : perWakeup(sim::costs().threadWakeup), wakeupNoise(nullptr)
{
}

Scheduler::Scheduler(sim::Engine &engine, sim::Cpu *cpu, GcHeap *heap,
                     Config config)
    : engine_(engine), cpu_(cpu), heap_(heap), config_(std::move(config)),
      c_threads_created_(
          trace::total(engine.metrics(), "rt.threads_created")),
      wakeups_(trace::total(engine.metrics(), "rt.wakeups"))
{
}

PromisePtr
Scheduler::sleep(Duration d)
{
    trace::bump(c_threads_created_);
    if (cpu_)
        cpu_->charge(sim::costs().threadCreate, "thread.create",
                     trace::Cat::Runtime);

    auto p = Promise::make();
    CellRef cell = 0;
    bool has_cell = false;
    if (heap_) {
        cell = heap_->alloc(threadRecordBytes);
        has_cell = true;
    }
    TimePoint deadline = engine_.now() + d;
    if (config_.wakeupNoise)
        deadline = deadline + config_.wakeupNoise();
    timers_.push(Timer{deadline, next_seq_++, p, cell, has_cell});
    armEngineTimer();
    return p;
}

PromisePtr
Scheduler::withTimeout(PromisePtr p, Duration d)
{
    return pick(std::move(p), sleep(d));
}

void
Scheduler::armEngineTimer()
{
    if (timers_.empty())
        return;
    TimePoint next = timers_.top().deadline;
    if (armed_ && armed_for_ <= next)
        return;
    if (armed_)
        engine_.cancel(armed_event_);
    armed_ = true;
    armed_for_ = next;
    armed_event_ = engine_.at(next, [this] {
        armed_ = false;
        fireExpired();
    });
}

void
Scheduler::fireExpired()
{
    while (!timers_.empty() && timers_.top().deadline <= engine_.now()) {
        Timer t = timers_.top();
        timers_.pop();
        if (t.hasCell && heap_)
            heap_->release(t.cell);
        if (!t.promise->pending())
            continue; // cancelled thread: no wakeup dispatched
        wakeups_.inc();
        if (cpu_)
            cpu_->charge(config_.perWakeup, "thread.wakeup",
                         trace::Cat::Runtime);
        t.promise->resolve();
    }
    armEngineTimer();
}

} // namespace mirage::rt
