#include "trace/flow.h"

#include "base/logging.h"
#include "trace/telemetry.h"

namespace mirage::trace {

thread_local FlowId FlowTracker::current_tls_ = 0;

FlowTracker::Flow *
FlowTracker::find(FlowId id)
{
    // Callers hold mu_.
    if (id == 0)
        return nullptr;
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
}

FlowTracker::Stage *
FlowTracker::stageOf(Flow &f, const char *name)
{
    for (Stage &s : f.stages)
        if (s.name == name)
            return &s;
    return nullptr;
}

FlowTracker::Flow
FlowTracker::take(FlowId id)
{
    // Callers hold mu_.
    auto it = live_.find(id);
    Flow f = std::move(it->second);
    live_.erase(it);
    live_count_.fetch_sub(1, std::memory_order_relaxed);
    return f;
}

FlowId
FlowTracker::begin(const char *kind, TimePoint ts, u32 tid,
                   std::string detail, std::string domain)
{
    // The id source reads the engine's ambient dispatch context; call
    // it before taking the lock so it never nests under mu_.
    FlowId id = id_source_ ? id_source_() : 0;
    std::string detail_copy;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (live_.size() >= liveCapacity) {
            // A stuck flow (lost ACK, dead peer) must not pin memory
            // forever; evict the map's first victim.
            live_.erase(live_.begin());
            live_count_.fetch_sub(1, std::memory_order_relaxed);
        }
        if (id == 0)
            id = next_id_++;
        Flow &f = live_[id];
        f.id = id;
        f.kind = kind;
        f.detail = std::move(detail);
        f.domain = std::move(domain);
        f.start_ns = ts.ns();
        detail_copy = f.detail;
        live_count_.fetch_add(1, std::memory_order_relaxed);
    }
    t_.tracer.asyncBegin(Cat::Flow, kind, id, ts, tid,
                         detail_copy.empty()
                             ? std::string()
                             : jsonObject("detail", detail_copy));
    current_tls_ = id;
    // Hooks run outside the lock: the stall watchdog re-arms off this
    // and reads completed()/liveCount() in the process.
    if (activity_hook_)
        activity_hook_();
    return id;
}

void
FlowTracker::stageBegin(FlowId id, const char *stage, TimePoint ts,
                        u32 tid)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f)
            return;
        Stage *s = stageOf(*f, stage);
        if (!s)
            s = &f->stages.emplace_back(Stage{stage, 0, 0, 0, 0});
        s->count++;
        if (s->open++ == 0)
            s->open_start = ts.ns();
        f->open_total++;
    }
    t_.tracer.asyncBegin(Cat::Flow, stage, id, ts, tid);
}

void
FlowTracker::stageEnd(FlowId id, const char *stage, TimePoint ts, u32 tid)
{
    std::optional<Flow> done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f)
            return;
        Stage *s = stageOf(*f, stage);
        if (!s || s->open == 0)
            return; // unmatched end: stage never opened (stamp lost)
        if (--s->open == 0)
            s->total_ns += u64(ts.ns() - s->open_start);
        f->open_total--;
        if (f->end_requested && f->open_total == 0) {
            f->end_ns = ts.ns();
            done = take(id);
        }
    }
    t_.tracer.asyncEnd(Cat::Flow, stage, id, ts, tid);
    if (done)
        finalize(*done, tid);
}

void
FlowTracker::markFailed(FlowId id)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (Flow *f = find(id))
        f->failed = true;
}

void
FlowTracker::end(FlowId id, TimePoint ts, u32 tid)
{
    std::optional<Flow> done;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Flow *f = find(id);
        if (!f || f->end_requested)
            return;
        f->end_requested = true;
        f->end_ns = ts.ns();
        if (f->open_total == 0)
            done = take(id);
    }
    if (done)
        finalize(*done, tid);
}

void
FlowTracker::finalize(Flow &f, u32 tid)
{
    // Runs WITHOUT mu_ held; @p f has already been removed from live_.
    // Every sibling is internally thread-safe, and the SLO tracker and
    // hub take their own locks.
    f.done = true;
    t_.tracer.asyncEnd(Cat::Flow, f.kind, f.id, TimePoint(f.end_ns), tid);
    recordSeries(f);
    t_.slo.record(f.kind, u64(f.end_ns - f.start_ns), f.failed,
                  TimePoint(f.end_ns));
    t_.hub.onFlowDone(f);
    if (current_tls_ == f.id)
        current_tls_ = 0;
    std::lock_guard<std::mutex> lk(mu_);
    recent_.push_back(std::move(f));
    while (recent_.size() > recent_capacity_)
        recent_.pop_front();
}

void
FlowTracker::recordSeries(const Flow &f)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = series_.find(std::string_view(f.kind));
    if (it == series_.end()) {
        std::string prefix = strprintf("flow.%s.", f.kind);
        it = series_
                 .emplace(f.kind,
                          Series{&t_.metrics.counter(prefix + "completed"),
                                 &t_.metrics.histogram(prefix + "total_ns"),
                                 {}})
                 .first;
    }
    Series &s = it->second;
    s.completed->inc();
    s.total_ns->record(u64(f.end_ns - f.start_ns));
    for (const Stage &st : f.stages) {
        Histogram *&h = s.stages[st.name];
        if (!h)
            h = &t_.metrics.histogram(strprintf(
                "flow.%s.stage.%s_ns", f.kind, st.name.c_str()));
        h->record(st.total_ns);
    }
}

u64
FlowTracker::completed() const
{
    std::lock_guard<std::mutex> lk(mu_);
    u64 n = 0;
    for (const auto &[kind, s] : series_)
        n += s.completed->value();
    return n;
}

void
FlowTracker::setRecentCapacity(std::size_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    recent_capacity_ = n;
    while (recent_.size() > recent_capacity_)
        recent_.pop_front();
}

std::string
FlowTracker::recentJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginArray();
    // Newest first: a dashboard polling /flows wants the fresh tail.
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
        const Flow &f = *it;
        w.newline().beginObject().fields(
            "id", f.id, "kind", f.kind, "detail", f.detail, "start_ns",
            f.start_ns, "total_ns", f.end_ns - f.start_ns);
        w.key("stages").beginObject();
        for (const Stage &s : f.stages)
            w.field(s.name, s.total_ns);
        w.endObject().endObject();
    }
    w.newline().endArray().newline();
    return w.take();
}

} // namespace mirage::trace
