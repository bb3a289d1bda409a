/**
 * @file
 * Cpu — busy-time accounting for one simulated virtual CPU.
 *
 * The paper's throughput comparisons are CPU-saturation shapes (e.g.,
 * Fig 12 "linear until it becomes CPU bound"). A Cpu serialises charged
 * work: a request costing S completes at max(now, freeAt) + S, so once
 * offered load exceeds 1/S the completion rate plateaus — no magic
 * numbers, just queueing.
 */

#ifndef MIRAGE_SIM_CPU_H
#define MIRAGE_SIM_CPU_H

#include <string>

#include "base/time.h"
#include "sim/engine.h"
#include "trace/layer.h"

namespace mirage::trace {
struct DomainStats;
} // namespace mirage::trace

namespace mirage::sim {

class Cpu
{
  public:
    Cpu(Engine &engine, std::string name);
    // The trace handle borrows name_.
    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /**
     * Charge @p cost of CPU work and run @p done when it completes.
     * Work is serialised FIFO behind whatever this CPU is already doing.
     * @p what / @p cat label the span on this CPU's trace track when the
     * engine's telemetry bundle has its recorder enabled.
     */
    void submit(Duration cost, Callback done,
                const char *what = "cpu.work",
                trace::Cat cat = trace::Cat::Cpu);

    /**
     * Charge @p cost with no completion callback (bookkeeping overhead
     * attached to some other event's timeline).
     */
    void charge(Duration cost, const char *what = "cpu.work",
                trace::Cat cat = trace::Cat::Cpu);

    /** Earliest time at which newly submitted work could start. */
    TimePoint freeAt() const;

    /**
     * Charge @p cost and return its completion time instead of
     * scheduling a callback. The cross-shard fabric lanes use this to
     * compute a hop's delivery time synchronously on the sending shard,
     * then sim::crossPostAt the receive side at that instant.
     */
    TimePoint finishAt(Duration cost, const char *what = "cpu.work",
                       trace::Cat cat = trace::Cat::Cpu);

    /** Total CPU time charged so far. */
    Duration busyTime() const { return busy_; }

    /** Utilisation over [t0, t1]: busy time / wall time, clamped to 1. */
    double utilisation(TimePoint t0, TimePoint t1) const;

    const std::string &name() const { return name_; }

    Engine &engine() { return engine_; }

    /**
     * Point this vCPU's run/steal accounting at a domain's stats
     * record (not owned); charged cost adds to run_ns and the queueing
     * delay behind earlier work adds to steal_ns.
     */
    void setStats(trace::DomainStats *stats) { stats_ = stats; }
    trace::DomainStats *domainStats() const { return stats_; }

  private:
    Engine &engine_;
    std::string name_;
    TimePoint free_at_;
    Duration busy_;
    trace::LayerTrace trace_; //!< this vCPU's track, named name_
    trace::DomainStats *stats_ = nullptr;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_CPU_H
