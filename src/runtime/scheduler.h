/**
 * @file
 * The thread scheduler and run loop (§3.3): timers live in a
 * heap-allocated priority queue; the run loop executes ready
 * continuations and otherwise blocks in domainpoll until the next
 * timer or external event. Scheduling logic is an application library
 * — the per-wakeup cost and wakeup-noise hooks exist precisely so
 * appliances (and the Fig 7 benches) can specialise it.
 */

#ifndef MIRAGE_RUNTIME_SCHEDULER_H
#define MIRAGE_RUNTIME_SCHEDULER_H

#include <functional>
#include <queue>

#include "base/rand.h"
#include "base/time.h"
#include "runtime/gc_heap.h"
#include "runtime/promise.h"
#include "sim/engine.h"

namespace mirage::rt {

class Scheduler
{
  public:
    struct Config
    {
        /** Dispatch cost charged per thread wakeup. */
        Duration perWakeup;
        /**
         * Extra latency injected per wakeup — models the scheduling
         * noise of the hosting environment (zero for the unikernel's
         * direct domainpoll path; syscall + runqueue noise for the
         * Linux baselines in Fig 7b).
         */
        std::function<Duration()> wakeupNoise;

        Config();
    };

    /**
     * @param cpu charged for thread bookkeeping (may be null: free)
     * @param heap charged for thread records (may be null)
     */
    Scheduler(sim::Engine &engine, sim::Cpu *cpu = nullptr,
              GcHeap *heap = nullptr, Config config = Config());

    sim::Engine &engine() { return engine_; }

    /** Approximate size of one thread record on the managed heap. */
    static constexpr u32 threadRecordBytes = 96;

    /**
     * A lightweight thread that sleeps @p d then resolves. The
     * paper's microbenchmark workload (Fig 7).
     */
    PromisePtr sleep(Duration d);

    /** pick(p, sleep(d)): resolves or cancels p on timeout. */
    PromisePtr withTimeout(PromisePtr p, Duration d);

    u64 wakeups() const { return wakeups_.value(); }

    /** The engine time at which the last-created sleep will fire,
     *  including modelled dispatch latency (jitter measurements). */
    // (Wake time is observable by the promise continuation itself.)

  private:
    struct Timer
    {
        TimePoint deadline;
        u64 seq;
        PromisePtr promise;
        CellRef cell;
        bool hasCell;

        bool
        operator>(const Timer &o) const
        {
            if (deadline != o.deadline)
                return deadline > o.deadline;
            return seq > o.seq;
        }
    };

    void armEngineTimer();
    void fireExpired();

    sim::Engine &engine_;
    sim::Cpu *cpu_;
    GcHeap *heap_;
    Config config_;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
        timers_;
    u64 next_seq_ = 0;
    sim::EventId armed_event_ = 0;
    TimePoint armed_for_;
    bool armed_ = false;
    trace::Counter *const c_threads_created_; //!< registry total
    trace::Counter wakeups_; //!< feeds `rt.wakeups`
};

} // namespace mirage::rt

#endif // MIRAGE_RUNTIME_SCHEDULER_H
