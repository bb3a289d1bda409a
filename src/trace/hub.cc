#include "trace/hub.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/telemetry.h"

namespace mirage::trace {

void
TelemetryHub::onFlowDone(const FlowTracker::Flow &f)
{
    const std::string &name =
        f.domain.empty() ? std::string("(untagged)") : f.domain;
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
    return sumOf(domains_);
}

std::string
TelemetryHub::fleetJson() const
{
    DomainAgg total = sumOf(domains_);
    JsonWriter w;
    w.beginObject().newline().key("domains").beginArray();
    u64 run_sum = 0, steal_sum = 0, blocked_sum = 0;
    u64 run_max = 0, steal_max = 0;
    for (const auto &[name, agg] : domains_) {
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
    w.fields("domains", domains_.size(), "requests", total.requests,
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
    w.newline().endObject().newline();
    return w.take();
}

std::string
TelemetryHub::toPrometheus() const
{
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
    return out;
}

} // namespace mirage::trace
