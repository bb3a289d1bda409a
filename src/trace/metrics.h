/**
 * @file
 * MetricsRegistry — named counters and log-linear histograms shared by
 * every subsystem (the functor-driven-development idea applied to
 * observability: instrumentation is a library module linked into the
 * appliance, not per-subsystem bookkeeping).
 *
 * Each count has one cell, written by one inc(). A subsystem binds its
 * counts once, at construction, through total(): either it keeps the
 * returned registry pointer, or — when something reads the count per
 * owner (a connection's retransmits, a pool's grants) — it keeps a
 * Counter of its own that feeds that total. One dump() then correlates
 * GC, TCP, ring and block activity across layers.
 *
 * Naming convention: `<subsystem>.<metric>`, lower_snake_case, with
 * byte counts suffixed `_bytes` and durations suffixed `_ns`
 * (e.g. `gc.minor_collections`, `tcp.bytes_sent`, `ring.blkif.req_pushed`).
 *
 * This header also declares the one Prometheus text writer: every
 * `/metrics` series (registry, fleet hub, wall profiler) is rendered
 * through promLabel / appendPromType / appendPromSample /
 * appendPromHistogram.
 */

#ifndef MIRAGE_TRACE_METRICS_H
#define MIRAGE_TRACE_METRICS_H

#include <atomic>
#include <map>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <string_view>

#include "base/types.h"
#include "trace/hdr.h"

namespace mirage::trace {

/**
 * A u64 cell with relaxed-atomic access — the one counter type. Named
 * registry counters and the per-domain DomainStats fields are both
 * Counters: the owning shard writes while rollups (/top, /fleet,
 * /metrics) read from another thread, and totals are exact once the
 * shards quiesce (window barriers, run end).
 *
 * A per-owner Counter may feed a registry total: each inc() adds to
 * both, so the owner's count and the registry sum cannot drift.
 */
class Counter
{
  public:
    Counter() = default;
    /** A per-owner cell feeding @p total (null: none). */
    explicit Counter(Counter *total) : total_(total) {}

    void inc(u64 n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        if (total_)
            total_->inc(n);
    }
    /** Overwrite, for gauge-style fields (live bytes after a GC); the
     *  total, if any, is left alone. */
    void set(u64 v) { value_.store(v, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }
    /** value() under std::atomic's name; perfbench reads
     *  `DomainStats` fields through it. */
    u64 load() const { return value(); }

  private:
    std::atomic<u64> value_{0};
    Counter *const total_ = nullptr;
};

/** Null-safe increment for optionally-wired counter pointers. */
inline void
bump(Counter *c, u64 n = 1)
{
    if (c)
        c->inc(n);
}

/**
 * Every registered histogram is an HdrHistogram (trace/hdr.h):
 * log-bucketed with 32 linear sub-buckets per octave, exact merge, and
 * p999 tail resolution. Kept under the `Histogram` name because this is
 * the one histogram type the codebase uses — the previous 4-sub-bucket
 * local type lost tail resolution above p99 and could not be merged
 * across shards.
 */
using Histogram = HdrHistogram;

/** Null-safe record for optionally-wired histogram pointers. */
inline void
observe(Histogram *h, u64 v)
{
    if (h)
        h->record(v);
}

// ---- Prometheus text exposition (format 0.0.4) -----------------------------
// The one writer of exposition text: the registry, the hub and the wall
// profiler render their `/metrics` series through these helpers.

/** One label, `name="value"`, with backslash, quote and newline in
 *  @p value escaped. Join several with ','. */
std::string promLabel(std::string_view name, std::string_view value);

/** `# TYPE <name> <type>` (counter, gauge, histogram). */
void appendPromType(std::string &out, std::string_view name,
                    const char *type);

/** One sample line, `<name>{<labels>} <value>`; no braces when
 *  @p labels is empty. A double prints with @p decimals digits. */
void appendPromSample(std::string &out, std::string_view name,
                      const std::string &labels, u64 value);
void appendPromSample(std::string &out, std::string_view name,
                      const std::string &labels, double value,
                      int decimals);

/**
 * Append @p h to @p out as Prometheus series `<name>_bucket`
 * (cumulative, only buckets that change the count, then `le="+Inf"`),
 * `<name>_sum` and `<name>_count`, each carrying @p labels. The
 * `# TYPE` line is the caller's.
 */
void appendPromHistogram(std::string &out, const std::string &name,
                         const std::string &labels, const Histogram &h);

/** When a registry counter shows in dump(), toPrometheus(),
 *  findCounter() and counterCount(). */
enum class Listed
{
    Always,     //!< from registration on, zero included
    OnceCounted //!< from its first count: a rare event's series (a
                //!< stall, a suppressed doorbell) stays out until it
                //!< happens
};

class MetricsRegistry
{
  public:
    /** Find-or-create; references stay valid for the registry's life.
     *  A name asked for as Listed::Always by anyone stays listed. */
    Counter &counter(const std::string &name,
                     Listed listed = Listed::Always);
    Histogram &histogram(const std::string &name);

    /** Lookup without creating; nullptr when absent (or not yet
     *  listed). */
    const Counter *findCounter(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Copies of the histograms named `<prefix>...`, keyed by the rest
     *  of the name. */
    std::map<std::string, Histogram>
    histogramsWithPrefix(const std::string &prefix) const;

    std::size_t counterCount() const;

    /**
     * Text dump, one `name value` / `name summary` line per metric,
     * sorted by name (the hook examples and benches print).
     */
    std::string dump() const;

    /**
     * Prometheus text exposition (format 0.0.4): counters as-is,
     * histograms as cumulative `_bucket{le="…"}` series plus `_sum` and
     * `_count`. Metric names are sanitised to [a-zA-Z0-9_:]; only
     * buckets that change the cumulative count are emitted (plus
     * `le="+Inf"`), keeping 256-slot histograms compact on the wire.
     */
    std::string toPrometheus() const;

  private:
    struct Entry
    {
        std::unique_ptr<Counter> cell;
        bool always = false; //!< Listed::Always
        bool listed() const { return always || cell->value() != 0; }
    };

    // Guards the name maps only; Counter/Histogram are internally
    // thread-safe and references stay valid without the lock.
    mutable std::mutex mu_;
    std::map<std::string, Entry> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * The one way a subsystem resolves a registry counter: the total @p name
 * in @p reg (created if absent), or null when @p reg is (telemetry off).
 * Call it once per owner, at construction — an engine's bundle is fixed
 * for the engine's life — and keep the pointer (inc it through bump())
 * or hand it to a per-owner Counter as the total that cell feeds.
 */
inline Counter *
total(MetricsRegistry *reg, const std::string &name,
      Listed listed = Listed::Always)
{
    return reg ? &reg->counter(name, listed) : nullptr;
}

} // namespace mirage::trace

#endif // MIRAGE_TRACE_METRICS_H
