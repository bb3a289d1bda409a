/**
 * @file
 * TelemetryHub — the dom0 fleet aggregation point.
 *
 * Every appliance in the cloud already self-serves its own telemetry
 * (`/metrics`, `/flows`, `/top`); what the operator is missing is the
 * *fleet* view: one place that answers "what is the p99 across all
 * sixty domains, and which one is burning its error budget?". The hub
 * is that place. Every flow finalize in its trace::Telemetry bundle
 * folds the completed request into a per-domain aggregate —
 * request/error counts plus an HdrHistogram of end-to-end latency —
 * and the hub computes fleet rollups on demand:
 *
 *   - request/error sums across domains,
 *   - a *histogram-merged* fleet latency distribution, whose quantiles
 *     are exactly the quantiles of the pooled population (hdr.h's merge
 *     guarantee) — not an average-of-p99s, which is meaningless,
 *   - CPU sums and maxes from the profiler's DomainStats,
 *   - the boot tracker's per-phase cold-boot breakdown,
 *   - the SLO tracker's burn-rate state and alert log.
 *
 * fleetJson() renders all of that for `GET /fleet`; toPrometheus()
 * exports the per-domain series with `domain` labels
 * (`fleet_requests_total{domain="web3"}`) so a real scraper could
 * slice the fleet the same way.
 *
 * The sources are the hub's siblings in the bundle, plus the bundle's
 * borrowed wall profiler when the cloud shards.
 */

#ifndef MIRAGE_TRACE_HUB_H
#define MIRAGE_TRACE_HUB_H

#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>

#include "base/types.h"
#include "trace/flow.h"
#include "trace/hdr.h"

namespace mirage::trace {

struct Telemetry;

class TelemetryHub
{
  public:
    /** Per-domain request aggregate, fed by flow finalisation. */
    struct DomainAgg
    {
        u64 requests = 0;
        u64 errors = 0;
        HdrHistogram latency; //!< end-to-end ns, mergeable
    };

    explicit TelemetryHub(Telemetry &t) : t_(t) {}

    /**
     * Fold one completed flow into its serving domain's aggregate
     * (FlowTracker's finalize calls this). Untagged flows land under
     * "(untagged)".
     */
    void onFlowDone(const FlowTracker::Flow &f);

    const std::map<std::string, DomainAgg> &domains() const
    {
        return domains_;
    }

    /**
     * Every domain folded into one aggregate: summed counts and the
     * exact merge of every latency histogram, so quantile(q) equals
     * the pooled-population quantile.
     */
    DomainAgg fleet() const;
    HdrHistogram fleetLatency() const { return fleet().latency; }
    u64 fleetRequests() const { return fleet().requests; }
    u64 fleetErrors() const { return fleet().errors; }

    /**
     * The `GET /fleet` document: `domains` (per-domain requests,
     * errors, latency quantiles, CPU and GC from DomainStats), `fleet`
     * (sums, maxes and the histogram-merged latency), `boot`
     * (per-phase cold-boot quantiles + recent boot records), `slo`
     * (burn-rate state per target), and — when the bundle borrows a
     * wall profiler that has observed windows — `shards` (per-worker
     * wall phase accounting, parallel efficiency, imbalance, lag).
     */
    std::string fleetJson() const;

    /**
     * Prometheus text exposition of the per-domain series with
     * `domain` labels: fleet_requests_total, fleet_errors_total and
     * the fleet_request_latency_ns histogram per domain.
     */
    std::string toPrometheus() const;

  private:
    Telemetry &t_;
    // Guards domains_; flows finalize on every shard while /fleet
    // renders from the monitor's shard.
    mutable std::mutex mu_;
    std::map<std::string, DomainAgg> domains_;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_HUB_H
