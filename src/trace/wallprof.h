/**
 * @file
 * WallProfiler — wall-clock attribution for the sharded engine.
 *
 * PR 5's trace::Profiler answers "where does *virtual* time go"; this
 * class answers the question the ShardSet introduced: "where does the
 * *real* time go while ShardSet::run is on the clock?". Every
 * nanosecond a worker thread spends inside a run is charged to one of
 * five phases:
 *
 *   execute  dispatching its shard's events inside a window [T, Wend)
 *            (mailbox-append time subtracted out, see below)
 *   calc     coordinator-only: applying cancels and computing the next
 *            window bounds at a barrier
 *   drain    the mailbox: sender-side append (lock + push, charged to
 *            the posting worker) and coordinator-side delivery
 *   wait     barrier synchronisation — the coordinator waiting for
 *            stragglers, a worker waiting for the next window to open
 *   idle     a worker that finished its window early, parked while
 *            other shards still run — the load-imbalance signal
 *
 * The split between a worker's wait and idle uses the coordinator's
 * published barrier timestamp: the park interval [finish, next open)
 * is idle up to the instant the last shard finished, wait after it.
 * Summed over workers the phases account for (workers x elapsed) to
 * within scheduler noise; attributedFraction() is CI-gated at >= 0.95.
 *
 * Derived metrics: parallel efficiency (busy / (workers x elapsed)),
 * a load-imbalance ratio per window (max/mean events, HdrHistogram
 * over windows), and cross-shard delivery-lag histograms on both
 * clocks (virtual post->deliver, wall enqueue->drain).
 *
 * Three export surfaces: toChromeJson() renders per-worker timeline
 * tracks in wall time, each execute span carrying the virtual window
 * it ran (so a virtual flamegraph and the wall timeline line up);
 * statsJson() is the `/fleet` "shards" section; toPrometheus() the
 * `shard_*{shard="i"}` series appended to `/metrics`.
 *
 * Determinism: this class only ever *observes* the host clock — no
 * measurement feeds back into virtual scheduling, so replay stays
 * bit-identical at any shard count with profiling enabled (asserted
 * by tests/shard_test.cc). Totals are relaxed atomics (TSan-clean);
 * timeline spans go to per-worker buffers under per-worker locks and
 * are bounded by kMaxSpansPerWorker.
 */

#ifndef MIRAGE_TRACE_WALLPROF_H
#define MIRAGE_TRACE_WALLPROF_H

// mirage-lint: allow-file(wall-clock-in-sim) — the wall profiler is
// the one sanctioned host-clock reader inside src/: it measures the
// worker threads themselves and never feeds time back into the
// simulation.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "trace/hdr.h"

namespace mirage::trace {

class WallProfiler
{
  public:
    enum class WallPhase : u8 {
        Execute = 0,
        Calc = 1,
        Drain = 2,
        Wait = 3,
        Idle = 4,
    };
    static constexpr unsigned kPhases = 5;
    static const char *phaseName(WallPhase p);

    /** Per-shard wall totals (the ShardStats extension). */
    struct ShardStats
    {
        u64 busy_ns = 0;  //!< execute (window dispatch)
        u64 calc_ns = 0;  //!< window computation (coordinator)
        u64 drain_ns = 0; //!< mailbox append + delivery
        u64 wait_ns = 0;  //!< barrier/sync wait
        u64 idle_ns = 0;  //!< finished early, others still running
        u64 events = 0;   //!< events dispatched by this shard
        u64 windows = 0;  //!< windows this shard participated in

        u64
        attributed() const
        {
            return busy_ns + calc_ns + drain_ns + wait_ns + idle_ns;
        }
    };

    /** Caller-stack dispatch context; links through a thread-local so
     *  mailbox appends mid-dispatch charge the posting worker. */
    struct DispatchCtx
    {
        WallProfiler *owner = nullptr;
        unsigned worker = 0;
        i64 t0 = 0;
        i64 nested_ns = 0; //!< mailbox-append time inside this window
        DispatchCtx *prev = nullptr;
    };

    WallProfiler();
    ~WallProfiler() = default;
    WallProfiler(const WallProfiler &) = delete;
    WallProfiler &operator=(const WallProfiler &) = delete;

    /** Size the per-worker slots; idempotent, call before any run. */
    void configure(unsigned workers);
    unsigned workers() const { return unsigned(slots_.size()); }

    /** Monotonic host nanoseconds since construction. The only place
     *  in src/ outside this file that reads the host clock is via this
     *  accessor, which keeps the lint surface a single file. */
    i64 nowNs() const;

    // ---- Hot-path hooks (driven by sim::ShardSet) -------------------

    void beginRun(i64 now);
    void endRun(i64 now);

    /** True between beginRun and endRun. Renderers that serve content
     *  *into* the simulation (the hub's /fleet and /metrics bodies)
     *  must omit wall sections while this is set: wall numbers differ
     *  run to run, and a single byte of them reaching a simulated
     *  client changes packetisation and breaks bit-identical replay.
     *  Out-of-sim readers (benches, post-run checks) are unaffected. */
    bool inRun() const { return in_run_.load(relaxed); }

    /** Worker @p w starts dispatching a window at wall time @p now. */
    void dispatchBegin(DispatchCtx &ctx, unsigned w, i64 now);

    /** ...and finishes at @p now having run @p events events of the
     *  virtual window [@p vt_ns, @p vend_ns). Mailbox-append time that
     *  happened inside the window is subtracted from execute. */
    void dispatchEnd(DispatchCtx &ctx, i64 now, i64 vt_ns, i64 vend_ns,
                     u64 events);

    /** Sender-side mailbox append [t0, t1), charged to the posting
     *  worker's drain phase (no-op outside a dispatch context). */
    void mailboxAppend(i64 t0, i64 t1);

    /** Coordinator barrier work: cancel apply + window computation. */
    void barrierCalc(i64 t0, i64 t1);

    /** Coordinator mailbox delivery [t0, t1) for window [vt, vend). */
    void barrierDrain(i64 t0, i64 t1, i64 vt_ns, i64 vend_ns);

    /** Coordinator waited [t0, t1) for stragglers; publishes t1 as the
     *  barrier timestamp workers use to split idle from wait. */
    void coordinatorWait(i64 t0, i64 t1);

    /** Worker @p w woke at @p now for the next window; accounts the
     *  park interval since its last dispatch (idle then wait). */
    void workerWake(unsigned w, i64 now);

    /** Fold this window's per-shard event counts (set by dispatchEnd)
     *  into the imbalance histogram. Coordinator, post-barrier. */
    void recordWindow();

    /** One cross-shard message delivered: virtual post->deliver lag
     *  plus wall enqueue->drain lag. The enqueue stamp is clamped to
     *  the current run's start so messages posted during
     *  single-threaded setup don't charge setup time to the mailbox.
     *  Cancelled messages never reach this (they are removed at a
     *  barrier before delivery). */
    void deliveryLag(u64 virt_ns, i64 enqueued_ns, i64 drained_ns);

    // ---- Results ----------------------------------------------------

    ShardStats shardStats(unsigned w) const;
    u64 elapsedNs() const { return elapsed_ns_.load(relaxed); }
    u64 windows() const { return windows_.load(relaxed); }

    /** Σ all phases / (workers x elapsed) — the >=95 % CI gate. */
    double attributedFraction() const;

    /** Σ execute / (workers x elapsed). */
    double parallelEfficiency() const;

    /** Σ wait / (workers x elapsed). */
    double barrierWaitFraction() const;

    /** Mean over windows of (max events per shard) / (mean events per
     *  shard); 1.0 = perfectly balanced, K = one shard did it all. */
    double imbalanceRatio() const;

    const HdrHistogram &deliveryLagVirtual() const { return lag_virt_; }
    const HdrHistogram &mailboxLagWall() const { return lag_wall_; }

    // ---- Export -----------------------------------------------------

    /** Record per-worker timeline spans (off by default: totals are
     *  always on, span buffers only fill when enabled). */
    void enableTimeline(bool on = true) { timeline_.store(on, relaxed); }
    bool timelineEnabled() const { return timeline_.load(relaxed); }

    /** Chrome trace_event JSON: one thread track per worker
     *  ("wall/shard0"...), timestamps in wall microseconds since the
     *  profiler's epoch, execute spans carrying the virtual window. */
    std::string toChromeJson() const;
    Status writeChromeJson(const std::string &path) const;

    /** The `/fleet` "shards" section (see TelemetryHub::fleetJson). */
    std::string statsJson() const;

    /** `shard_*{shard="i"}` Prometheus series for `/metrics`. */
    std::string toPrometheus() const;

    u64 spansRecorded() const;
    u64 spansDropped() const;

  private:
    static constexpr auto relaxed = std::memory_order_relaxed;
    static constexpr std::size_t kMaxSpansPerWorker = 1u << 15;

    struct Span
    {
        WallPhase phase;
        i64 t0_ns;
        i64 t1_ns;
        i64 vt_ns;   //!< virtual window start (execute/drain), else -1
        i64 vend_ns; //!< virtual window end, else -1
        u64 events;  //!< execute: events dispatched
        u64 idle_ns; //!< wait spans: leading idle portion
    };

    /** Per-worker slot, cache-line padded: each worker thread writes
     *  only its own slot on the hot path. */
    struct alignas(64) Slot
    {
        std::atomic<u64> phase_ns[kPhases] = {};
        std::atomic<u64> events{0};
        std::atomic<u64> windows{0};
        std::atomic<u64> win_events{0}; //!< events in current window
        std::atomic<i64> finish_ns{0};  //!< wall time last window ended
        mutable std::mutex span_mu;
        std::vector<Span> spans;
        std::atomic<u64> spans_dropped{0};
    };

    void addPhase(unsigned w, WallPhase p, i64 ns);
    void pushSpan(unsigned w, const Span &s);

    std::vector<std::unique_ptr<Slot>> slots_;
    std::atomic<u64> elapsed_ns_{0};
    std::atomic<u64> windows_{0};
    std::atomic<i64> run_begin_ns_{0};
    std::atomic<i64> barrier_begin_ns_{0};
    std::atomic<bool> in_run_{false};
    std::atomic<bool> timeline_{false};
    HdrHistogram imbalance_; //!< per-window max/mean ratio, x1000
    HdrHistogram lag_virt_;  //!< cross-shard virtual post->deliver ns
    HdrHistogram lag_wall_;  //!< cross-shard wall enqueue->drain ns
    i64 origin_ns_ = 0;      //!< host-clock epoch (construction time)
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_WALLPROF_H
