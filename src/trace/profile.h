/**
 * @file
 * Profiler — attributed virtual-time CPU profiling plus per-domain
 * resource accounting (the library-OS answer to gprof and xentop).
 *
 * The paper's appliances deliberately ship without ps/top/gprof: the
 * operating system is a library, so introspection has to be a library
 * too. This module closes that gap in two layers:
 *
 * *Attribution.* An ambient ProfScope stack (mirroring trace/flow.h's
 * FlowScope) labels the current subsystem path — `app/http`, `rt/gc`,
 * `hyp/netback/tx` — and every cost charged through sim::Cpu lands at
 * `<ambient path>;<charge label>` in a weighted call tree. sim::Engine
 * snapshots the ambient scope when work is scheduled and restores it
 * around dispatch, so attribution follows callbacks through promises,
 * timers and event-channel hops exactly like flow ids do. The tree
 * exports as Brendan-Gregg folded stacks (`a;b;c <ns>` lines, ready
 * for flamegraph.pl / speedscope) and as a Chrome-trace counter track.
 * Work charged with the generic "cpu.work" label directly under the
 * root is the only *unattributed* bucket; attributedFraction() reports
 * how much of the charged time escaped it.
 *
 * *Accounting.* A DomainStats record per domain aggregates what xentop
 * would show: vCPU run/steal/blocked time, event-channel notify rates,
 * ring occupancy high-water marks and the GC's pause histograms.
 * Subsystems write the fields directly — per domain, beside the
 * per-owner counts that feed the registry totals (trace/metrics.h);
 * topJson() renders the whole host snapshot for the appliance's
 * self-served `GET /top` endpoint.
 *
 * *Watchdogs.* Threshold alerts — long GC pause, ring at capacity,
 * request-flow stall, SLO burn — funnel through alert(), which counts,
 * logs, warns and dumps the bundle's flight recorder, so a stalled
 * appliance leaves a post-mortem behind.
 *
 * The profiler has no simulator dependencies; sim/hypervisor/runtime
 * call *into* it, keeping the trace library at the bottom of the
 * layering (like FlowTracker).
 */

#ifndef MIRAGE_TRACE_PROFILE_H
#define MIRAGE_TRACE_PROFILE_H

#include <map>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/time.h"
#include "base/types.h"
#include "trace/metrics.h"
#include "trace/scope.h"

namespace mirage::trace {

class Profiler;
struct Telemetry;

/**
 * One ring's occupancy mark in a DomainStats record. Its owner (a
 * backend) resolves it once with DomainStats::ring() and notes through
 * it, so a drain builds no string and walks no map. The fields are
 * guarded by the record's rings_mu_: the owning shard notes while /top
 * renders from another thread.
 */
struct RingMark
{
    explicit RingMark(std::string n) : name(std::move(n)) {}

    const std::string name;
    u32 hwm = 0; //!< occupancy high-water mark (slots)
    //! Slot count, for full detection; 0 until first noted (such a mark
    //! is not listed by /top).
    u32 capacity = 0;
    bool full_alerted = false;
};

/**
 * Per-domain resource accounting — one record per domain, owned by the
 * Profiler, written directly by sim::Cpu (run/steal), xen::Domain
 * (blocked time), the event-channel hub (notify rates), the backends
 * (ring occupancy) and rt::GcHeap (collection numbers). Always on
 * while the engine carries a trace::Telemetry bundle: every field is a
 * handful of adds per event, cheap enough to leave running under
 * benches.
 */
struct DomainStats
{
    std::string name;
    Profiler *owner = nullptr; //!< for ring-full alerts

    // ---- vCPU time (summed over the domain's vcpus) -----------------
    Counter run_ns;     //!< work charged to the vcpus
    Counter steal_ns;   //!< charged work queued behind earlier work
    Counter blocked_ns; //!< time spent inside domainpoll
    Counter polls;      //!< completed domainpolls

    // ---- Event channels ---------------------------------------------
    Counter notifies_sent;
    Counter notifies_received;

    // ---- Ring occupancy high-water marks (keyed by ring name) -------
    // Guarded by rings_mu_: the owning shard updates marks while /top
    // renders from another thread.
    mutable std::mutex rings_mu_;
    std::map<std::string, RingMark> rings;

    // ---- GC (a pause histogram's count() is its collection count) ----
    Counter gc_promoted_bytes;
    Counter gc_live_after_major_bytes;
    Histogram gc_minor_pause_ns;
    Histogram gc_major_pause_ns;

    /** The mark for ring @p name, created on first use; the reference
     *  stays valid for the record's life. */
    RingMark &ring(const std::string &name);

    /**
     * Record @p occupancy slots outstanding on @p ring (of @p capacity
     * total): updates the high-water mark and raises a one-shot
     * `ring_full` alert the first time the ring is observed full.
     * Pass @p alert_on_full = false for rings where full is the healthy
     * state (an RX ring full of posted buffers has spare capacity, not
     * backlog).
     */
    void noteRing(RingMark &ring, u32 occupancy, u32 capacity,
                  bool alert_on_full = true);
};

class Profiler
{
  public:
    /**
     * Index of a node in the scope tree; 0 is the root. Snapshotted by
     * sim::Engine per scheduled event and restored around dispatch.
     */
    using ScopeId = u32;

    explicit Profiler(Telemetry &t);

    /** Attribution is recorded only while enabled (accounting in
     *  DomainStats is always on). */
    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    // ---- Ambient scope stack ----------------------------------------
    // Thread-local, like FlowTracker's ambient flow: each shard worker
    // carries its own attribution context across dispatch.
    ScopeId current() const { return current_tls_; }
    void setCurrent(ScopeId s) { current_tls_ = s; }

    /**
     * Descend into child @p label of the current scope (interning it on
     * first use) and return the previous scope for restore. No-op
     * (returns current()) while disabled.
     */
    ScopeId push(const char *label);

    // ---- Charging (the sim::Cpu funnel) -----------------------------
    /**
     * Attribute @p ns of charged virtual CPU time to
     * `<current scope>;<leaf>`. @p now_ns paces the Chrome counter
     * track while the tracer is enabled.
     */
    void charge(const char *leaf, u64 ns, i64 now_ns);

    u64 totalNs() const
    {
        return total_ns_.load(std::memory_order_relaxed);
    }
    /** Charged ns in the root-level generic bucket ("cpu.work"). */
    u64 unattributedNs() const;
    /** 1 - unattributed/total; 1.0 when nothing was charged. */
    double attributedFraction() const;

    // ---- Folded-stack export ----------------------------------------
    /**
     * Brendan-Gregg folded stacks: one `path;to;scope <self_ns>` line
     * per node with self time, flamegraph.pl-ready.
     */
    std::string folded() const;
    Status writeFolded(const std::string &path) const;

    /** Self ns / charge count at the node named by a folded @p path
     *  (frames joined with ';'); 0 when absent. */
    u64 selfNs(const std::string &path) const;
    u64 samples(const std::string &path) const;

    /** Counter-track sampling cadence (virtual time; default 100 µs). */
    void setSampleInterval(Duration d) { sample_interval_ns_ = d.ns(); }

    // ---- Per-domain accounting --------------------------------------
    /** Find-or-create; the reference stays valid for the profiler's
     *  life. */
    DomainStats &domain(const std::string &name);
    const DomainStats *findDomain(const std::string &name) const;

    /** All per-domain records, keyed by name (TelemetryHub rollups). */
    const std::map<std::string, std::unique_ptr<DomainStats>> &
    domainStats() const
    {
        return domains_;
    }

    /**
     * The xentop snapshot: one JSON object per domain with "cpu"
     * (run/steal/blocked ns), "evtchn" (notify rates), "rings"
     * (occupancy HWMs) and "gc" (counts + pause quantiles) sections,
     * plus host-wide attribution and alert totals. Serves `GET /top`.
     */
    std::string topJson() const;

    /** Human-readable xentop-style table (the --top flag). */
    std::string topText() const;

    // ---- Watchdogs / alerts -----------------------------------------
    /** Raise alert @p kind (e.g. "stall", "gc_pause", "ring_full"):
     *  count, log, warn and dump the flight recorder. */
    void alert(const char *kind, const std::string &detail);

    u64 alerts() const { return c_alerts_.value(); }
    /** Most recent alerts, oldest first ("kind: detail"), bounded. */
    std::vector<std::string> alertLog() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return alert_log_;
    }

    /** GC pauses at or above this raise `gc_pause` (0 disables). */
    void setGcPauseAlertThreshold(Duration d)
    {
        gc_pause_alert_ns_ = u64(d.ns());
    }

    /** rt::GcHeap reports every pause here; raises `gc_pause` when the
     *  threshold is set and crossed. */
    void checkGcPause(u64 pause_ns, const char *kind,
                      const std::string &heap);

  private:
    struct Node
    {
        std::string label;
        u32 parent = 0;
        u64 self_ns = 0;
        u64 total_ns = 0;   //!< self + descendants
        u64 samples = 0;    //!< charges landing exactly here
        u64 emitted_ns = 0; //!< counter-track high-water (root children)
        std::vector<u32> children;
    };

    u32 childOf(u32 parent, const char *label);
    u32 findPath(const std::string &path) const;
    std::string pathOf(u32 node) const;
    void emitCounterSample(i64 now_ns);
    u64 unattributedNsLocked() const;
    double attributedFractionLocked() const;

    Telemetry &t_;
    bool enabled_ = false;
    Counter &c_alerts_;
    // Guards the scope tree, domain map and alert log; charges arrive
    // from every shard worker. totalNs()/alerts() stay lock-free.
    mutable std::mutex mu_;
    std::vector<Node> nodes_{Node{}}; //!< [0] is the root
    std::atomic<u64> total_ns_{0};
    i64 sample_interval_ns_ = 100'000;
    i64 next_sample_ns_ = 0;
    std::map<std::string, std::unique_ptr<DomainStats>> domains_;
    std::vector<std::string> alert_log_;
    u64 gc_pause_alert_ns_ = 0;
    static constexpr std::size_t alertLogCapacity = 64;

    static thread_local ScopeId current_tls_;
};

/**
 * RAII descent into a named child scope; null- and disabled-safe so
 * call sites don't branch. Everything charged (or scheduled) inside
 * the scope is attributed under it.
 */
class ProfScope
{
  public:
    ProfScope(Profiler *p, const char *label)
    {
        if (p && p->enabled()) {
            p_ = p;
            saved_ = p->push(label);
        }
    }
    ~ProfScope()
    {
        if (p_)
            p_->setCurrent(saved_);
    }
    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *p_ = nullptr;
    Profiler::ScopeId saved_ = 0;
};

/** RAII restore of an absolute scope snapshot (trace/scope.h). */
using ProfRestore = AmbientScope<Profiler>;

} // namespace mirage::trace

#endif // MIRAGE_TRACE_PROFILE_H
