#include "trace/hub.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/telemetry.h"
#include "trace/wallprof.h"

namespace mirage::trace {

void
TelemetryHub::onFlowDone(const FlowTracker::Flow &f)
{
    const std::string &name =
        f.domain.empty() ? std::string("(untagged)") : f.domain;
    std::lock_guard<std::mutex> lk(mu_);
    DomainAgg &agg = domains_[name];
    agg.requests++;
    if (f.failed)
        agg.errors++;
    agg.latency.record(u64(f.end_ns - f.start_ns));
}

namespace {

TelemetryHub::DomainAgg
sumOf(const std::map<std::string, TelemetryHub::DomainAgg> &domains)
{
    TelemetryHub::DomainAgg total;
    for (const auto &[name, agg] : domains) {
        total.requests += agg.requests;
        total.errors += agg.errors;
        total.latency.merge(agg.latency);
    }
    return total;
}

} // namespace

TelemetryHub::DomainAgg
TelemetryHub::fleet() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sumOf(domains_);
}

std::string
TelemetryHub::fleetJson() const
{
    // Snapshot under the lock, render without it: the render path reads
    // the profiler and SLO tracker, which take their own locks.
    std::map<std::string, DomainAgg> domains;
    {
        std::lock_guard<std::mutex> lk(mu_);
        domains = domains_;
    }
    DomainAgg total = sumOf(domains);
    JsonWriter w;
    w.beginObject().newline().key("domains").beginArray();
    u64 run_sum = 0, steal_sum = 0, blocked_sum = 0;
    u64 run_max = 0, steal_max = 0;
    for (const auto &[name, agg] : domains) {
        w.newline().beginObject().fields("name", name, "requests",
                                         agg.requests, "errors", agg.errors);
        agg.latency.json(w.key("latency"), true);
        if (const DomainStats *ds = t_.profiler.findDomain(name)) {
            u64 run = ds->run_ns.value(), steal = ds->steal_ns.value();
            u64 blocked = ds->blocked_ns.value();
            run_sum += run;
            steal_sum += steal;
            blocked_sum += blocked;
            run_max = std::max(run_max, run);
            steal_max = std::max(steal_max, steal);
            w.key("cpu").beginObject().fields("run_ns", run, "steal_ns",
                                              steal, "blocked_ns", blocked);
            w.endObject().key("gc").beginObject();
            w.fields("minor", ds->gc_minor_pause_ns.count(), "major",
                     ds->gc_major_pause_ns.count());
            w.endObject();
        }
        w.endObject();
    }
    w.endArray().newline().key("fleet").beginObject();
    w.fields("domains", domains.size(), "requests", total.requests,
             "errors", total.errors);
    total.latency.json(w.key("latency"), true);
    w.key("cpu").beginObject().fields(
        "run_ns_sum", run_sum, "run_ns_max", run_max, "steal_ns_sum",
        steal_sum, "steal_ns_max", steal_max, "blocked_ns_sum",
        blocked_sum);
    w.endObject().field("alerts", t_.profiler.alerts());
    w.key("alert_log").beginArray();
    for (const std::string &a : t_.profiler.alertLog())
        w.str(a);
    w.endArray().endObject();
    const BootTracker &boots = t_.boots;
    w.newline().key("boot").beginObject().fields(
        "started", boots.started(), "completed", boots.completedBoots());
    boots.totalHistogram().json(w.key("total"), true);
    boots.firstRequestHistogram().json(w.key("first_request"), true);
    w.key("phases").beginObject();
    for (const auto &[phase, h] : boots.phaseHistogramsSnapshot())
        h.json(w.key(phase), true);
    w.endObject().key("recent").raw(boots.json()).endObject();
    w.newline().key("slo").raw(t_.slo.json());
    // Only render the shard section once the profiler has seen a
    // sharded run; a 1-shard cloud bypasses the ShardSet entirely and
    // an all-zero section would just read as a broken profiler. Never
    // render it mid-run: /fleet is also served to in-sim HTTP clients,
    // and wall-clock bytes in the body would change packetisation and
    // so virtual timing — breaking bit-identical replay.
    if (t_.wall && t_.wall->windows() > 0 && !t_.wall->inRun())
        w.newline().key("shards").raw(t_.wall->statsJson());
    w.newline().endObject().newline();
    return w.take();
}

std::string
TelemetryHub::toPrometheus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    appendPromType(out, "fleet_requests_total", "counter");
    for (const auto &[name, agg] : domains_)
        appendPromSample(out, "fleet_requests_total",
                         promLabel("domain", name), agg.requests);
    appendPromType(out, "fleet_errors_total", "counter");
    for (const auto &[name, agg] : domains_)
        appendPromSample(out, "fleet_errors_total",
                         promLabel("domain", name), agg.errors);
    appendPromType(out, "fleet_request_latency_ns", "histogram");
    for (const auto &[name, agg] : domains_)
        appendPromHistogram(out, "fleet_request_latency_ns",
                            promLabel("domain", name), agg.latency);
    // Same in-run gate as fleetJson: /metrics is fetched by in-sim
    // clients, and wall-dependent bytes must never reach them.
    if (t_.wall && t_.wall->windows() > 0 && !t_.wall->inRun())
        out += t_.wall->toPrometheus();
    return out;
}

} // namespace mirage::trace
