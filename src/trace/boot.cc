#include "trace/boot.h"

#include "base/logging.h"
#include "trace/telemetry.h"

namespace mirage::trace {

thread_local BootId BootTracker::current_tls_ = 0;

BootTracker::Record *
BootTracker::findMutable(BootId id)
{
    // Callers hold mu_.
    if (id == 0)
        return nullptr;
    for (Record &r : records_)
        if (r.id == id)
            return &r;
    return nullptr;
}

u32
BootTracker::bootTrack(const std::string &domain)
{
    return t_.tracer.enabled() ? t_.tracer.track(domain + "/boot") : 0;
}

BootId
BootTracker::begin(const std::string &domain, TimePoint ts)
{
    BootId id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        while (records_.size() >= recordCapacity) {
            open_by_domain_.erase(records_.front().domain);
            records_.pop_front();
        }
        id = next_id_++;
        Record r;
        r.id = id;
        r.domain = domain;
        r.submit_ns = ts.ns();
        records_.push_back(std::move(r));
        // A respawned domain replaces its earlier open record: the
        // fleet cares about the boot currently in flight.
        open_by_domain_[domain] = id;
        started_.fetch_add(1, std::memory_order_relaxed);
    }
    t_.tracer.asyncBegin(Cat::Boot, "boot", id, ts, bootTrack(domain),
                         jsonObject("domain", domain));
    current_tls_ = id;
    return id;
}

void
BootTracker::phase(BootId id, const char *name, TimePoint start,
                   TimePoint end, u64 ops)
{
    std::string domain;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Record *r = findMutable(id);
        if (!r)
            return;
        Phase p;
        p.name = name;
        p.start_ns = start.ns();
        p.dur_ns = end.ns() - start.ns();
        p.ops = ops;
        r->phases.push_back(std::move(p));
        domain = r->domain;
    }
    u32 tid = bootTrack(domain);
    t_.tracer.asyncBegin(Cat::Boot, name, id, start, tid);
    t_.tracer.asyncEnd(Cat::Boot, name, id, end, tid);
    t_.metrics.histogram(std::string("boot.") + name + "_ns")
        .record(u64(end.ns() - start.ns()));
}

void
BootTracker::notePhaseOps(BootId id, const char *name, u64 ops)
{
    std::lock_guard<std::mutex> lk(mu_);
    Record *r = findMutable(id);
    if (!r)
        return;
    for (Phase &p : r->phases) {
        if (p.name == name) {
            p.ops += ops;
            return;
        }
    }
    Phase p;
    p.name = name;
    p.ops = ops;
    r->phases.push_back(std::move(p));
}

void
BootTracker::ready(BootId id, TimePoint ts)
{
    std::string domain;
    u64 total;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Record *r = findMutable(id);
        if (!r || r->ready_ns >= 0)
            return;
        r->ready_ns = ts.ns();
        domain = r->domain;
        total = u64(r->ready_ns - r->submit_ns);
    }
    t_.tracer.asyncEnd(Cat::Boot, "boot", id, ts, bootTrack(domain));
    t_.metrics.counter("boot.completed").inc();
    t_.metrics.histogram("boot.total_ns").record(total);
}

void
BootTracker::firstRequest(const std::string &domain, TimePoint ts)
{
    BootId id;
    i64 ready_ns, submit_ns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = open_by_domain_.find(domain);
        if (it == open_by_domain_.end())
            return;
        Record *r = findMutable(it->second);
        open_by_domain_.erase(it);
        if (!r || r->ready_ns < 0)
            return;
        r->first_request_ns = ts.ns();
        r->done = true;
        Phase p;
        p.name = "first_request";
        p.start_ns = r->ready_ns;
        p.dur_ns = ts.ns() - r->ready_ns;
        r->phases.push_back(p);
        id = r->id;
        ready_ns = r->ready_ns;
        submit_ns = r->submit_ns;
    }
    u32 tid = bootTrack(domain);
    t_.tracer.asyncBegin(Cat::Boot, "first_request", id,
                         TimePoint(ready_ns), tid);
    t_.tracer.asyncEnd(Cat::Boot, "first_request", id, ts, tid);
    t_.metrics.histogram("boot.first_request_ns")
        .record(u64(ts.ns() - submit_ns));
}

u64
BootTracker::completedBoots() const
{
    const Counter *c = t_.metrics.findCounter("boot.completed");
    return c ? c->value() : 0;
}

std::map<std::string, HdrHistogram>
BootTracker::phaseHistogramsSnapshot() const
{
    std::map<std::string, HdrHistogram> out;
    for (auto &[name, h] : t_.metrics.histogramsWithPrefix("boot.")) {
        // Every boot histogram is `<name>_ns`; two of them are whole-boot
        // spans, not phases.
        if (name != "total_ns" && name != "first_request_ns")
            out.emplace(name.substr(0, name.size() - 3), std::move(h));
    }
    return out;
}

const HdrHistogram &
BootTracker::registered(const char *name) const
{
    static const HdrHistogram empty;
    const HdrHistogram *h = t_.metrics.findHistogram(name);
    return h ? *h : empty;
}

std::string
BootTracker::json() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginArray();
    for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
        const Record &r = *it;
        w.newline().beginObject().fields(
            "domain", r.domain, "submit_ns", r.submit_ns, "total_ns",
            r.totalNs(), "first_request_ns",
            r.first_request_ns >= 0 ? r.first_request_ns - r.submit_ns
                                    : i64(-1));
        w.key("phases").beginObject();
        for (const Phase &p : r.phases) {
            w.key(p.name).beginObject();
            w.fields("dur_ns", p.dur_ns, "ops", p.ops).endObject();
        }
        w.endObject().endObject();
    }
    w.newline().endArray();
    return w.take();
}

} // namespace mirage::trace
