/**
 * @file
 * Adaptive ring polling (the NAPI shape): while a ring is busy its
 * consumer parks the producer's event and drains on a short timer
 * instead of per-publish doorbells; after a quiet period it re-arms the
 * event and goes idle. With the poll cadence at the upcall latency,
 * polled delivery is no slower than a notify — it just stops paying the
 * evtchn_send hypercall per publish.
 *
 * The owner supplies three callbacks:
 *  - ready: is there anything for drain to do right now — a response or
 *    request unconsumed, or queued work that now fits the ring?
 *  - drain: park the producer event(s) and consume everything
 *    available; return true when anything was consumed.
 *  - rearm: re-arm the producer event(s) (finalCheck…); return true
 *    when work raced in, which keeps the poller alive one more round.
 *
 * Polls run as an engine poll train (Engine::poll): a poll that ready()
 * says would find nothing, inside the idle window, is credited by the
 * engine instead of run. So ready() must be *pure* — it reads ring
 * indices and queues and nothing else: no checker counts, no metrics,
 * no writes, no scheduling. And it must be *exact*: whenever it returns
 * false, drain(true) must consume nothing, schedule nothing and write
 * only values already in place (the parked event word is cons + slots
 * + 1 with cons unchanged; a ring mark noted at occupancy 0). The drain
 * may enter one profiler scope under the poll's root scope, named at
 * construction; a credited poll interns it.
 *
 * Invariant the owner must keep: events are only parked from code paths
 * that also kick() the poller (or, like blkback, have another
 * guaranteed future drain). Parked events with no scheduled poll would
 * deadlock the ring.
 */

#ifndef MIRAGE_SIM_POLLER_H
#define MIRAGE_SIM_POLLER_H

#include <functional>

#include "sim/engine.h"
#include "sim/tuning.h"
#include "trace/flow.h"
#include "trace/profile.h"

namespace mirage::sim {

class Poller
{
  public:
    /**
     * @param prof_scope the profiler scope drain() enters (a string
     *        literal), or null when it enters none.
     */
    Poller(Engine &engine, const char *prof_scope,
           std::function<bool()> ready, std::function<bool()> drain,
           std::function<bool()> rearm)
        : engine_(engine), prof_scope_(prof_scope),
          ready_(std::move(ready)), drain_(std::move(drain)),
          rearm_(std::move(rearm))
    {
    }
    ~Poller() { cancel(); }
    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Activity observed (an event arrived / work drained): start or
     *  extend polling mode. */
    void
    kick()
    {
        last_activity_ = engine_.now();
        if (!scheduled_)
            schedule();
    }

    /** True while a poll is scheduled (events may stay parked). */
    bool active() const { return scheduled_; }

    /** The owner's readiness test, as the engine's credit test sees
     *  it (test visibility). */
    bool ready() const { return ready_(); }

    /** Run the owner's drain now, as a poll would (test visibility:
     *  checks that a drain with ready() false is a no-op). */
    bool drainNow() { return drain_(); }

    /** Drop any scheduled poll (teardown; idempotent). The owner must
     *  re-arm its ring events itself if they are still parked. */
    void
    cancel()
    {
        if (!scheduled_)
            return;
        engine_.cancel(event_);
        scheduled_ = false;
    }

  private:
    void
    schedule()
    {
        scheduled_ = true;
        // The poll timer serves whatever sits in the ring when it
        // fires, not the request that happened to be ambient when it
        // was armed — schedule under no flow / root scope so drained
        // slots carry their own stamped ids instead of a stale one.
        trace::FlowScope neutral(engine_.flows(), 0);
        trace::ProfRestore pneutral(engine_.profiler(), 0);
        event_ = engine_.poll(tuning().pollInterval, [this] { fire(); },
                              PollHook{&Poller::idle, this, prof_scope_});
    }

    /** The engine's credit test: fire() would drain nothing and
     *  reschedule itself. Pure, like ready(). */
    static bool
    idle(void *ctx)
    {
        auto *p = static_cast<Poller *>(ctx);
        return !p->ready_() &&
               p->engine_.now() - p->last_activity_ <= tuning().pollIdle;
    }

    void
    fire()
    {
        scheduled_ = false;
        if (drain_())
            last_activity_ = engine_.now();
        if (engine_.now() - last_activity_ <= tuning().pollIdle) {
            schedule();
            return;
        }
        // Quiet too long: re-arm the producer's event before going
        // idle. A publish that raced the re-arm keeps us awake.
        if (rearm_()) {
            last_activity_ = engine_.now();
            drain_();
            schedule();
        }
    }

    Engine &engine_;
    const char *prof_scope_;
    std::function<bool()> ready_;
    std::function<bool()> drain_;
    std::function<bool()> rearm_;
    TimePoint last_activity_;
    EventId event_ = 0;
    bool scheduled_ = false;
};

} // namespace mirage::sim

#endif // MIRAGE_SIM_POLLER_H
