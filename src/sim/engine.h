/**
 * @file
 * The discrete-event simulation engine.
 *
 * Everything comparative in this reproduction — domain scheduling,
 * device service times, syscall costs — runs on deterministic event
 * queues keyed by virtual time. Ties at the same instant are broken by
 * a *causal* key rather than global insertion order: every event
 * carries the identity hash of the event that scheduled it (its
 * "strand") plus its sibling index within that dispatch, and the queue
 * orders by (when, strand, idx). Siblings therefore stay FIFO, and the
 * key depends only on the causal tree rooted at the seed: a run is a
 * pure function of its seed. The engine is single-threaded; one engine
 * drives a whole simulated host.
 *
 * The engine also carries the observability layer: one optional
 * trace::Telemetry bundle (tracer, metrics, flows, profiler, boots, SLO,
 * hub) and one optional check::Checker, which every subsystem with
 * engine access shares. Both default to null, so uninstrumented runs
 * pay one pointer test per hook.
 */

#ifndef MIRAGE_SIM_ENGINE_H
#define MIRAGE_SIM_ENGINE_H

#include <cstdint>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "sim/callback.h"
#include "trace/telemetry.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::sim {

/**
 * Handle identifying a scheduled event, usable for cancellation.
 * Encodes (generation << 32 | slot + 1): the slot indexes a reusable
 * entry in the engine's slot table, the generation invalidates stale
 * handles after the slot is recycled. 0 is never a valid id.
 */
using EventId = u64;

/** splitmix64-style finaliser used to derive causal event keys. */
inline u64
mixKey(u64 a, u64 b)
{
    u64 z = a + 0x9e3779b97f4a7c15ull + b * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The idle test of a poll train (Engine::poll). @ref idle says whether
 * the poll due now would drain nothing and re-arm itself one period
 * later; it must be pure — no writes, no checker counts, no scheduling
 * — because the engine may call it and then not run the poll at all.
 */
struct PollHook
{
    bool (*idle)(void *ctx) = nullptr;
    void *ctx = nullptr;
    //! Profiler scope the poll's drain enters under its (root) scope;
    //! a credited poll interns it so the scope tree grows as if the
    //! drain had run. Null when the drain enters none.
    const char *scope = nullptr;
};

class Engine
{
  public:
    /**
     * @param telemetry the observability bundle, fixed for the engine's
     *        life (null: all off). Not owned; it must outlive the
     *        engine, because every subsystem built on the engine binds
     *        its registry counters once, at construction.
     */
    explicit Engine(trace::Telemetry *telemetry = nullptr,
                    check::Checker *checker = nullptr);

    /** Current virtual time. */
    TimePoint now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p t (>= now). */
    EventId at(TimePoint t, Callback &&fn);

    /** Schedule @p fn to run @p d after now. */
    EventId after(Duration d, Callback &&fn);

    /**
     * Schedule a ring poll @p period after now, as a *poll train*. It
     * behaves exactly like after(@p period, @p fn) — same key, id,
     * dispatch checksum and event count — with one shortcut: whenever
     * the poll is next in (when, strand, idx) order and
     * `hook.idle(hook.ctx)` holds, the engine *credits* it instead of
     * running @p fn. A credit counts and checksums the poll, emits its
     * `dispatch` instant, and re-keys the train to the poll the real
     * one would have scheduled as the first child of an empty drain:
     * `after(period)` from the poll's own context. The returned id
     * stays valid for cancel() for the whole train.
     */
    EventId poll(Duration period, Callback &&fn, const PollHook &hook);

    /**
     * Derive a deterministic token from the current dispatch context
     * (consumes one sibling slot). Used as a seed-determined id
     * source, e.g. for FlowTracker flow ids.
     */
    u64 deriveToken() { return mixKey(cur_hash_ | 1, next_child_++); }

    /** Cancel a pending event. Idempotent; no-op after it fired. */
    void cancel(EventId id);

    /** True when no events remain. */
    bool
    empty() const
    {
        return queue_.size() + trains_.size() == cancelled_count_;
    }

    /**
     * Run the next pending event, advancing the clock to it.
     * @return false when the queue is empty.
     */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run events with time <= @p t, then set the clock to @p t.
     * Events scheduled later stay queued.
     */
    void runUntil(TimePoint t);

    /** runUntil(now + d). */
    void runFor(Duration d);

    /** Number of events executed since construction. */
    u64 eventsRun() const { return events_run_; }

    /**
     * Commutative fold of mixKey(when, hash) over every dispatched
     * event. Two runs dispatching the same causal set of events at the
     * same times produce the same checksum — the determinism tests and
     * the benchmark's seed pins compare it across runs.
     */
    u64 dispatchChecksum() const { return checksum_; }

    /** Events scheduled and not yet dispatched (cancelled or not). */
    std::size_t pendingEvents() const { return live_; }

    /**
     * Cancelled ids whose queue slot has not been reached yet. Bounded
     * by pendingEvents(): ids are dropped when their slot is popped,
     * so long simulations cannot accumulate cancellation garbage.
     */
    std::size_t cancelledBacklog() const { return cancelled_count_; }

    /**
     * The engine currently dispatching, or null outside dispatch.
     * Flow ids and probes use it to find the dispatch context without
     * plumbing an engine reference through every call chain.
     */
    static Engine *current() { return current_; }

    // ---- Observability ----------------------------------------------
    /**
     * The bundle given at construction. With one, the ambient flow id
     * and profiler scope are captured at schedule time and restored
     * around dispatch, so flows and attribution follow their callbacks
     * through timers, promises and event-channel hops without per-call
     * plumbing.
     */
    trace::Telemetry *telemetry() const { return telemetry_; }
    trace::TraceRecorder *tracer() const
    {
        return telemetry_ ? &telemetry_->tracer : nullptr;
    }
    trace::MetricsRegistry *metrics() const
    {
        return telemetry_ ? &telemetry_->metrics : nullptr;
    }
    trace::FlowTracker *flows() const
    {
        return telemetry_ ? &telemetry_->flows : nullptr;
    }
    trace::Profiler *profiler() const
    {
        return telemetry_ ? &telemetry_->profiler : nullptr;
    }
    trace::BootTracker *boots() const
    {
        return telemetry_ ? &telemetry_->boots : nullptr;
    }

    /** Attach (or detach with nullptr) an invariant checker. Not owned. */
    void setChecker(check::Checker *checker) { checker_ = checker; }
    check::Checker *checker() const { return checker_; }

  private:
    /**
     * Heap entry: the ordering key plus the slot holding everything
     * else. Kept to 32 bytes so sift-up/down moves little memory; the
     * callback never moves while its event is queued.
     */
    struct Key
    {
        TimePoint when;
        u64 strand;       //!< identity hash of the scheduling event
        u64 idx;          //!< sibling index within that dispatch
        u32 slot;         //!< index into slots_
        u32 credited = 0; //!< poll trains: polls credited so far

        bool
        operator>(const Key &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (strand != o.strand)
                return strand > o.strand;
            return idx > o.idx;
        }
    };

    /** A poll train: its next poll's key plus how to credit it. */
    struct Train
    {
        Key key;
        Duration period;
        PollHook hook;

        bool operator>(const Train &o) const { return key > o.key; }
    };

    /**
     * A 4-ary min-heap: half the levels of a binary heap, and a node's
     * four Key children fill two cache lines. No two pending keys are
     * equal — (strand, idx) names one child of one dispatch — so the
     * pop order is the total (when, strand, idx) order, whatever the
     * heap's shape.
     */
    template <class T>
    class QuadHeap
    {
      public:
        bool empty() const { return items_.empty(); }
        std::size_t size() const { return items_.size(); }
        const T &top() const { return items_.front(); }
        T &top() { return items_.front(); }
        void push(const T &item);
        void pop();
        /** Restore heap order after top() was moved later in place. */
        void topChanged() { siftDown(items_.front()); }

      private:
        /** Place @p item from the root down (it may alias the root). */
        void siftDown(T item);

        std::vector<T> items_;
    };

    /** Which queue holds the next pending event. */
    enum class Head : u8
    {
        None,
        Event, //!< queue_
        Poll   //!< trains_
    };

    /** The key on top of @p head's queue (not Head::None). */
    const Key &
    headKey(Head head) const
    {
        return head == Head::Poll ? trains_.top().key : queue_.top();
    }

    /**
     * Scheduling bookkeeping: one slot per live event, recycled through
     * a free list, so scheduling, cancelling and dispatching are O(1)
     * array operations. The slot owns the callback and the context
     * restored around it.
     */
    enum class SlotState : u8
    {
        Free,
        Pending,
        Cancelled
    };

    struct Slot
    {
        Callback fn;
        u64 hash = 0;   //!< the event's identity (mixKey(strand, idx))
        u64 flow = 0;   //!< ambient FlowId captured at schedule time
        u32 pscope = 0; //!< ambient profiler scope captured alongside
        u32 gen = 0;
        SlotState state = SlotState::Free;
    };

    /**
     * The one dispatch path: drop cancelled slots, then run (or credit)
     * the next event — unless @p bounded and it lies beyond @p limit.
     * @return true when an event ran or was credited.
     */
    bool dispatchOne(bool bounded, TimePoint limit);

    /** Account the idle poll on top of trains_ and re-key its train. */
    void creditPoll();

    /**
     * Schedule-time work shared by at() and poll(): take the next
     * causal key in the current dispatch context, capture the ambient
     * flow and profiler scope, and park @p fn in a slot.
     * @return the queue key for time @p t.
     */
    Key schedule(TimePoint t, Callback &&fn);
    u32 claimSlot(Callback &&fn, u64 hash, u64 flow, u32 pscope);
    EventId idOf(u32 idx, u32 credited) const;

    /**
     * Pop cancelled heads of both queues in global key order,
     * destroying their callbacks.
     * @return the queue whose head is the next pending event.
     */
    Head settleTop();

    /** The slot an id names, or null for stale/invalid ids. */
    Slot *slotFor(EventId id);
    void releaseSlot(u32 idx);

    TimePoint now_;
    u64 cur_hash_ = 0;   //!< identity hash of the dispatching event (0 = root)
    u64 next_child_ = 0; //!< next sibling index in the current context
    u64 events_run_ = 0;
    u64 checksum_ = 0;
    QuadHeap<Key> queue_;
    //! Ring polls, one train per active sim::Poller (a few per domain),
    //! kept apart from queue_ so a credit re-keys a small heap instead
    //! of sifting through cancelled timers.
    QuadHeap<Train> trains_;
    std::vector<Slot> slots_;
    std::vector<u32> free_slots_;
    std::size_t live_ = 0;            //!< scheduled, not dispatched
    std::size_t cancelled_count_ = 0; //!< subset of live_
    trace::Telemetry *const telemetry_;
    check::Checker *checker_ = nullptr;
    trace::Counter *const c_dispatched_;
    trace::Counter *const c_cancelled_;

    static Engine *current_;
};

/**
 * Schedule @p fn on @p target @p delay from now: Engine::after under
 * its old name. Kept for frozen perfbench; remove with ROADMAP item 7.
 */
inline EventId
crossPost(Engine &target, Duration delay, Callback &&fn)
{
    return target.after(delay, std::move(fn));
}

} // namespace mirage::sim

#endif // MIRAGE_SIM_ENGINE_H
