/**
 * @file
 * MetricsRegistry — named counters and log-linear histograms shared by
 * every subsystem (the functor-driven-development idea applied to
 * observability: instrumentation is a library module linked into the
 * appliance, not per-subsystem bookkeeping).
 *
 * Subsystems keep their existing `stats_` structs for cheap direct
 * reads; when the engine carries a trace::Telemetry bundle they
 * additionally mirror into its registry's named counters, so one
 * dump() correlates GC, TCP, ring and block activity across layers.
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
 */
class Counter
{
  public:
    void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    /** Overwrite, for gauge-style fields (live bytes after a GC). */
    void set(u64 v) { value_.store(v, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }
    /** value() under std::atomic's name; perfbench reads
     *  `DomainStats` fields through it. */
    u64 load() const { return value(); }

  private:
    std::atomic<u64> value_{0};
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

class MetricsRegistry
{
  public:
    /** Find-or-create; references stay valid for the registry's life. */
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    /** Copies of the histograms named `<prefix>...`, keyed by the rest
     *  of the name. */
    std::map<std::string, Histogram>
    histogramsWithPrefix(const std::string &prefix) const;

    std::size_t counterCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return counters_.size();
    }

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
    // Guards the name maps only; Counter/Histogram are internally
    // thread-safe and references stay valid without the lock.
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_METRICS_H
