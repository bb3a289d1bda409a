/**
 * @file
 * ShardSet — conservative parallel simulation over per-shard engines.
 *
 * The fleet experiments (§4's parallel toolstack at 1000-domain scale)
 * are wall-clock bound on one event queue long before the virtual
 * clock is. A ShardSet splits the simulation into K sim::Engine
 * shards, each drained by its own worker thread, synchronised with a
 * conservative lower-bound window protocol:
 *
 *   1. At a barrier the coordinator computes T, the global minimum
 *      next-event time across all shards and undelivered cross-shard
 *      messages, delivers every mailbox message due at T, and opens
 *      the window [T, Wend) with Wend = min(T + lookahead, earliest
 *      still-undelivered cross message).
 *   2. Every worker dispatches its shard's events strictly before
 *      Wend in parallel, with no locks on the hot path.
 *   3. Cross-shard schedules (event-channel upcalls, bridge hops,
 *      toolstack boots) go through the mailbox API — sim::crossPost /
 *      ShardSet::postAt — which captures the causal ordering key
 *      (sim::CrossKey) and the ambient flow/profiler context *on the
 *      sending shard*. Because every cross hop models a latency of at
 *      least the lookahead, a message's delivery time always lies at
 *      or beyond the current window's end, so it is merged at a
 *      barrier before any shard could have advanced past it.
 *
 * The causal keys make the merged dispatch order a pure function of
 * the seed: the same run is bit-identical at any shard count,
 * including flow/profiler attribution (see engine.h). Cross-shard
 * cancellation is exact: windows never extend past an undelivered
 * cross message, so a cancel issued at virtual time t < delivery time
 * always reaches the coordinator at a barrier before the message is
 * injected.
 */

#ifndef MIRAGE_SIM_SHARD_H
#define MIRAGE_SIM_SHARD_H

// mirage-lint: allow(wall-clock-in-sim)
#include <condition_variable>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
// mirage-lint: allow(wall-clock-in-sim)
#include <thread>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "sim/engine.h"
#include "trace/wallprof.h"

namespace mirage::sim {

/**
 * Handle for a cross-shard (or same-shard) post, usable for exact
 * cancellation from any shard.
 */
struct CrossHandle
{
    Engine *target = nullptr;
    EventId event = 0; //!< same-shard fast path: a plain engine event
    u64 hash = 0;      //!< mailbox path: the message's causal identity
    TimePoint when;

    bool valid() const { return target != nullptr; }
};

class ShardSet
{
  public:
    /**
     * @p primary becomes shard 0 (it keeps running on the caller's
     * thread); @p shards - 1 additional engines are created, sharing
     * the primary's telemetry bundle and checker, and driven by worker
     * threads. @p lookahead must be <= the smallest latency
     * any cross-shard interaction models (the event-channel upcall,
     * 1 us, is the binding constraint in the cost model).
     */
    ShardSet(Engine &primary, unsigned shards,
             Duration lookahead = Duration::micros(1));
    ~ShardSet();

    ShardSet(const ShardSet &) = delete;
    ShardSet &operator=(const ShardSet &) = delete;

    unsigned count() const { return unsigned(engines_.size()); }
    Engine &shard(unsigned i) { return *engines_.at(i); }

    /** Round-robin placement helper: the home engine for index @p i. */
    Engine &engineFor(std::size_t i)
    {
        return *engines_[i % engines_.size()];
    }

    Duration lookahead() const { return lookahead_; }

    /**
     * Consume one key from the primary shard's root context. Engine::at
     * routes root-context (setup-time) scheduling on *any* shard here,
     * so setup order — single-threaded program order — yields the same
     * key sequence at every shard count.
     */
    CrossKey rootKey() { return engines_[0]->nextKey(); }

    /**
     * Mailbox send: run @p fn on @p target at absolute time @p when.
     * The causal key and ambient flow/profiler context are captured on
     * the calling shard. When @p target is the calling engine (or the
     * set is quiescent and single-shard) this degenerates to a direct
     * Engine::at with identical ordering. While running, @p when must
     * be >= the sender's now + lookahead for genuinely cross-shard
     * targets — every modelled cross-domain latency satisfies this.
     */
    CrossHandle postAt(Engine &target, TimePoint when, Callback &&fn);

    /**
     * Exactly cancel a pending cross post from any shard: windows
     * never span an undelivered cross message, so a cancel issued
     * before the delivery time always wins. No-op once it fired.
     */
    void cancelCross(const CrossHandle &h);

    /** Run every shard until the whole set is quiescent. */
    void run();

    /** Run events with time <= @p t, then set all clocks to @p t. */
    void runUntil(TimePoint t);
    void runFor(Duration d);

    // ---- Shard-aware aggregates (watchdogs, /top) -------------------
    /** True when no events remain on any shard or in the mailbox. */
    bool empty() const;

    /** Scheduled-but-undispatched events across shards + mailbox. */
    std::size_t pendingEvents() const;

    /** Cancelled-but-unreaped ids across all shards. */
    std::size_t cancelledBacklog() const;

    /** Total events executed across all shards. */
    u64 eventsRun() const;

    /**
     * Commutative dispatch checksum over all shards: identical across
     * shard counts for the same seed (the determinism tests' anchor).
     */
    u64 dispatchChecksum() const;

    /** Latest virtual time any shard has reached. */
    TimePoint maxNow() const;

    /** Synchronisation windows executed (scaling diagnostics). */
    u64 windows() const { return windows_; }

    /** Mailbox messages sent / exactly cancelled / delivered. A
     *  cancelled message never counts as delivered (and never reaches
     *  the delivery-lag histograms). */
    u64 crossPosts() const { return cross_posts_; }
    u64 crossCancelled() const { return cross_cancelled_; }
    u64 crossDelivered() const { return cross_delivered_; }

    /**
     * Wall-clock attribution for this set's runs: per-worker phase
     * totals (execute/calc/drain/wait/idle), parallel efficiency,
     * load imbalance and cross-shard delivery-lag histograms, plus
     * the per-worker Chrome timeline (wallprof().enableTimeline()).
     * Observation only — it never perturbs virtual determinism.
     */
    trace::WallProfiler &wallprof() { return wallprof_; }
    const trace::WallProfiler &wallprof() const { return wallprof_; }

  private:
    struct CrossMsg
    {
        Engine *target;
        TimePoint when;
        CrossKey key;
        u64 flow;
        u32 pscope;
        i64 posted_vt;   //!< sender's virtual clock at post time
        i64 posted_wall; //!< wall clock at enqueue (delivery lag)
        Callback fn;
    };

    /** One barrier + one parallel window. False when quiescent.
     *  @p coord_ns carries the coordinator thread's last wall stamp
     *  across windows so its phase accounting tiles with no gaps. */
    bool stepWindow(TimePoint deadline, i64 &coord_ns);

    /** @return the coordinator's wall stamp at window completion. */
    i64 runWorkers(TimePoint window_start, TimePoint window_end,
                   i64 coord_ns);
    void workerLoop(unsigned shard);
    void startWorkers();

    std::vector<Engine *> engines_; //!< [0] = primary, rest owned
    std::vector<std::unique_ptr<Engine>> owned_;
    Duration lookahead_;

    // Mailbox: senders append under post_mu_ during windows; the
    // coordinator drains at barriers (workers are parked then).
    mutable std::mutex post_mu_;
    std::vector<CrossMsg> pending_;
    std::vector<u64> cancels_;
    bool running_ = false;

    u64 windows_ = 0;
    u64 cross_posts_ = 0;
    u64 cross_cancelled_ = 0;
    u64 cross_delivered_ = 0;

    trace::WallProfiler wallprof_;

    // Worker-thread barrier (only used when count() > 1).
    std::vector<std::thread> workers_; // mirage-lint: allow(wall-clock-in-sim)
    std::mutex ctl_mu_;
    std::condition_variable cv_go_;
    std::condition_variable cv_done_;
    u64 epoch_ = 0;
    unsigned done_ = 0;
    TimePoint window_start_;
    TimePoint window_end_;
    bool quit_ = false;
};

/**
 * The one sanctioned way to schedule onto a domain's engine from
 * outside it. Same-engine (or unsharded) targets degenerate to a
 * direct Engine::at with identical causal ordering; cross-shard
 * targets go through the ShardSet mailbox. @p delay is relative to
 * the *sender's* clock.
 */
CrossHandle crossPost(Engine &target, Duration delay, Callback &&fn);

/** crossPost with an absolute delivery time. */
CrossHandle crossPostAt(Engine &target, TimePoint when, Callback &&fn);

/** Cancel a crossPost from any shard; exact before delivery time. */
void crossCancel(const CrossHandle &h);

} // namespace mirage::sim

#endif // MIRAGE_SIM_SHARD_H
