#include "trace/hub.h"

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
    std::string out = "{\n\"domains\":[";
    bool first = true;
    u64 run_sum = 0, steal_sum = 0, blocked_sum = 0;
    u64 run_max = 0, steal_max = 0;
    for (const auto &[name, agg] : domains) {
        out += strprintf(
            "%s\n{\"name\":\"%s\",\"requests\":%llu,\"errors\":%llu,"
            "\"latency\":%s",
            jsonSep(first), jsonEscape(name).c_str(),
            (unsigned long long)agg.requests,
            (unsigned long long)agg.errors,
            agg.latency.json(true).c_str());
        if (const DomainStats *ds = t_.profiler.findDomain(name)) {
            run_sum += ds->run_ns;
            steal_sum += ds->steal_ns;
            blocked_sum += ds->blocked_ns;
            if (ds->run_ns > run_max)
                run_max = ds->run_ns;
            if (ds->steal_ns > steal_max)
                steal_max = ds->steal_ns;
            out += strprintf(
                ",\"cpu\":{\"run_ns\":%llu,\"steal_ns\":%llu,"
                "\"blocked_ns\":%llu},"
                "\"gc\":{\"minor\":%llu,\"major\":%llu}",
                (unsigned long long)ds->run_ns,
                (unsigned long long)ds->steal_ns,
                (unsigned long long)ds->blocked_ns,
                (unsigned long long)ds->gc_minor,
                (unsigned long long)ds->gc_major);
        }
        out += "}";
    }
    out += "],\n\"fleet\":{";
    out += strprintf(
        "\"domains\":%zu,\"requests\":%llu,\"errors\":%llu,"
        "\"latency\":%s,"
        "\"cpu\":{\"run_ns_sum\":%llu,\"run_ns_max\":%llu,"
        "\"steal_ns_sum\":%llu,\"steal_ns_max\":%llu,"
        "\"blocked_ns_sum\":%llu}",
        domains.size(), (unsigned long long)total.requests,
        (unsigned long long)total.errors, total.latency.json(true).c_str(),
        (unsigned long long)run_sum, (unsigned long long)run_max,
        (unsigned long long)steal_sum, (unsigned long long)steal_max,
        (unsigned long long)blocked_sum);
    out += strprintf(",\"alerts\":%llu,\"alert_log\":[",
                     (unsigned long long)t_.profiler.alerts());
    bool fa = true;
    for (const std::string &a : t_.profiler.alertLog()) {
        out += strprintf("%s\"%s\"", jsonSep(fa), jsonEscape(a).c_str());
    }
    out += "]}";
    const BootTracker &boots = t_.boots;
    out += strprintf(
        ",\n\"boot\":{\"started\":%llu,\"completed\":%llu,"
        "\"total\":%s,\"first_request\":%s,\"phases\":{",
        (unsigned long long)boots.started(),
        (unsigned long long)boots.completedBoots(),
        boots.totalHistogram().json(true).c_str(),
        boots.firstRequestHistogram().json(true).c_str());
    bool fp = true;
    for (const auto &[phase, h] : boots.phaseHistogramsSnapshot()) {
        out += strprintf("%s\"%s\":%s", jsonSep(fp),
                         jsonEscape(phase).c_str(), h.json(true).c_str());
    }
    out += "},\"recent\":" + boots.json() + "}";
    out += ",\n\"slo\":" + t_.slo.json();
    // Only render the shard section once the profiler has seen a
    // sharded run; a 1-shard cloud bypasses the ShardSet entirely and
    // an all-zero section would just read as a broken profiler. Never
    // render it mid-run: /fleet is also served to in-sim HTTP clients,
    // and wall-clock bytes in the body would change packetisation and
    // so virtual timing — breaking bit-identical replay.
    if (t_.wall && t_.wall->windows() > 0 && !t_.wall->inRun())
        out += ",\n\"shards\":" + t_.wall->statsJson();
    out += "\n}\n";
    return out;
}

namespace {

std::string
promLabel(const std::string &s)
{
    // Label values allow anything except backslash, quote, newline.
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

std::string
TelemetryHub::toPrometheus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    out += "# TYPE fleet_requests_total counter\n";
    for (const auto &[name, agg] : domains_)
        out += strprintf("fleet_requests_total{domain=\"%s\"} %llu\n",
                         promLabel(name).c_str(),
                         (unsigned long long)agg.requests);
    out += "# TYPE fleet_errors_total counter\n";
    for (const auto &[name, agg] : domains_)
        out += strprintf("fleet_errors_total{domain=\"%s\"} %llu\n",
                         promLabel(name).c_str(),
                         (unsigned long long)agg.errors);
    out += "# TYPE fleet_request_latency_ns histogram\n";
    for (const auto &[name, agg] : domains_)
        appendPromHistogram(out, "fleet_request_latency_ns",
                            "domain=\"" + promLabel(name) + "\"",
                            agg.latency);
    // Same in-run gate as fleetJson: /metrics is fetched by in-sim
    // clients, and wall-dependent bytes must never reach them.
    if (t_.wall && t_.wall->windows() > 0 && !t_.wall->inRun())
        out += t_.wall->toPrometheus();
    return out;
}

} // namespace mirage::trace
