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
 */

#ifndef MIRAGE_TRACE_METRICS_H
#define MIRAGE_TRACE_METRICS_H

#include <atomic>
#include <map>
#include <memory>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>

#include "base/types.h"
#include "trace/hdr.h"

namespace mirage::trace {

/**
 * A monotonically increasing named value. Increments are relaxed
 * atomics so per-shard simulation workers can share one registry; the
 * total is exact once the shards quiesce (window barriers, run end).
 */
class Counter
{
  public:
    void inc(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

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

/**
 * Append @p h to @p out as Prometheus series `<name>_bucket`
 * (cumulative, only buckets that change the count, then `le="+Inf"`),
 * `<name>_sum` and `<name>_count`. @p labels is a label list without
 * braces (`domain="web3"`), or empty. The `# TYPE` line is the
 * caller's.
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
