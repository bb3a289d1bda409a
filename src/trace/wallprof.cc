#include "trace/wallprof.h"

// mirage-lint: allow-file(wall-clock-in-sim) — the wall profiler is
// the one sanctioned host-clock reader in src/ (see wallprof.h); its
// measurements never feed back into virtual scheduling.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "base/logging.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace mirage::trace {

namespace {

/** The one thread-local linking mailbox appends to the dispatching
 *  worker. A stack of contexts (not a bare pointer) so a nested
 *  ShardSet run inside an event handler unwinds cleanly. */
thread_local WallProfiler::DispatchCtx *g_dispatch = nullptr;

} // namespace

const char *
WallProfiler::phaseName(WallPhase p)
{
    switch (p) {
    case WallPhase::Execute: return "execute";
    case WallPhase::Calc: return "calc";
    case WallPhase::Drain: return "drain";
    case WallPhase::Wait: return "wait";
    case WallPhase::Idle: return "idle";
    }
    return "?";
}

WallProfiler::WallProfiler()
{
    origin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
}

void
WallProfiler::configure(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    while (slots_.size() < workers)
        slots_.push_back(std::make_unique<Slot>());
}

i64
WallProfiler::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           origin_ns_;
}

void
WallProfiler::addPhase(unsigned w, WallPhase p, i64 ns)
{
    if (ns <= 0 || w >= slots_.size())
        return;
    slots_[w]->phase_ns[unsigned(p)].fetch_add(u64(ns), relaxed);
}

void
WallProfiler::pushSpan(unsigned w, const Span &s)
{
    if (w >= slots_.size())
        return;
    Slot &slot = *slots_[w];
    std::lock_guard<std::mutex> lk(slot.span_mu);
    if (slot.spans.size() >= kMaxSpansPerWorker) {
        slot.spans_dropped.fetch_add(1, relaxed);
        return;
    }
    slot.spans.push_back(s);
}

void
WallProfiler::beginRun(i64 now)
{
    run_begin_ns_.store(now, relaxed);
    // Until the first barrier completes, a worker's whole park since
    // run start counts as wait (the coordinator is computing the first
    // window) — publishing "barrier at run start" encodes exactly that.
    barrier_begin_ns_.store(now, relaxed);
    in_run_.store(true, relaxed);
}

void
WallProfiler::endRun(i64 now)
{
    i64 begin = run_begin_ns_.load(relaxed);
    if (now > begin)
        elapsed_ns_.fetch_add(u64(now - begin), relaxed);
    // Workers are parked at the final barrier while the coordinator
    // discovers quiescence: close out that tail as wait so every
    // worker's phases tile the whole run.
    for (std::size_t w = 1; w < slots_.size(); w++) {
        i64 finish = slots_[w]->finish_ns.load(relaxed);
        i64 from = std::max(finish, begin);
        addPhase(unsigned(w), WallPhase::Wait, now - from);
        slots_[w]->finish_ns.store(now, relaxed);
    }
    in_run_.store(false, relaxed);
}

void
WallProfiler::dispatchBegin(DispatchCtx &ctx, unsigned w, i64 now)
{
    ctx.owner = this;
    ctx.worker = w;
    ctx.t0 = now;
    ctx.nested_ns = 0;
    ctx.prev = g_dispatch;
    g_dispatch = &ctx;
}

void
WallProfiler::dispatchEnd(DispatchCtx &ctx, i64 now, i64 vt_ns,
                          i64 vend_ns, u64 events)
{
    g_dispatch = ctx.prev;
    unsigned w = ctx.worker;
    addPhase(w, WallPhase::Execute, now - ctx.t0 - ctx.nested_ns);
    if (w < slots_.size()) {
        Slot &slot = *slots_[w];
        slot.events.fetch_add(events, relaxed);
        slot.windows.fetch_add(1, relaxed);
        slot.win_events.store(events, relaxed);
        slot.finish_ns.store(now, relaxed);
    }
    if (timelineEnabled())
        pushSpan(w, Span{WallPhase::Execute, ctx.t0, now, vt_ns,
                         vend_ns, events, 0});
}

void
WallProfiler::mailboxAppend(i64 t0, i64 t1)
{
    DispatchCtx *ctx = g_dispatch;
    if (!ctx || ctx->owner != this)
        return; // setup-time post: not on the run's clock
    ctx->nested_ns += t1 - t0;
    addPhase(ctx->worker, WallPhase::Drain, t1 - t0);
}

void
WallProfiler::barrierCalc(i64 t0, i64 t1)
{
    addPhase(0, WallPhase::Calc, t1 - t0);
    if (timelineEnabled() && t1 > t0)
        pushSpan(0, Span{WallPhase::Calc, t0, t1, -1, -1, 0, 0});
}

void
WallProfiler::barrierDrain(i64 t0, i64 t1, i64 vt_ns, i64 vend_ns)
{
    addPhase(0, WallPhase::Drain, t1 - t0);
    if (timelineEnabled() && t1 > t0)
        pushSpan(0, Span{WallPhase::Drain, t0, t1, vt_ns, vend_ns, 0,
                         0});
}

void
WallProfiler::coordinatorWait(i64 t0, i64 t1)
{
    addPhase(0, WallPhase::Wait, t1 - t0);
    barrier_begin_ns_.store(t1, relaxed);
    if (timelineEnabled() && t1 > t0)
        pushSpan(0, Span{WallPhase::Wait, t0, t1, -1, -1, 0, 0});
}

void
WallProfiler::workerWake(unsigned w, i64 now)
{
    if (w >= slots_.size())
        return;
    // The park interval [finish, now) splits at the coordinator's
    // published barrier instant: before it other shards were still
    // running (idle — the load-imbalance cost), after it the barrier
    // and window computation were in flight (wait). Clamp to the run
    // start so inter-run parking is never charged.
    i64 from = std::max(slots_[w]->finish_ns.load(relaxed),
                        run_begin_ns_.load(relaxed));
    i64 barrier = barrier_begin_ns_.load(relaxed);
    if (now <= from)
        return;
    i64 idle = std::clamp<i64>(barrier - from, 0, now - from);
    addPhase(w, WallPhase::Idle, idle);
    addPhase(w, WallPhase::Wait, now - from - idle);
    if (timelineEnabled())
        pushSpan(w, Span{WallPhase::Wait, from, now, -1, -1, 0,
                         u64(idle)});
}

void
WallProfiler::recordWindow()
{
    windows_.fetch_add(1, relaxed);
    u64 total = 0, mx = 0;
    for (const auto &slot : slots_) {
        u64 n = slot->win_events.load(relaxed);
        total += n;
        mx = std::max(mx, n);
    }
    if (total == 0)
        return;
    // max/mean scaled x1000 so the integer histogram keeps ~0.1 %
    // resolution; 1000 = perfectly balanced.
    imbalance_.record(mx * 1000 * u64(slots_.size()) / total);
}

void
WallProfiler::deliveryLag(u64 virt_ns, i64 enqueued_ns, i64 drained_ns)
{
    lag_virt_.record(virt_ns);
    i64 from = std::max(enqueued_ns, run_begin_ns_.load(relaxed));
    lag_wall_.record(drained_ns > from ? u64(drained_ns - from) : 0);
}

WallProfiler::ShardStats
WallProfiler::shardStats(unsigned w) const
{
    ShardStats s;
    if (w >= slots_.size())
        return s;
    const Slot &slot = *slots_[w];
    s.busy_ns = slot.phase_ns[unsigned(WallPhase::Execute)].load(relaxed);
    s.calc_ns = slot.phase_ns[unsigned(WallPhase::Calc)].load(relaxed);
    s.drain_ns = slot.phase_ns[unsigned(WallPhase::Drain)].load(relaxed);
    s.wait_ns = slot.phase_ns[unsigned(WallPhase::Wait)].load(relaxed);
    s.idle_ns = slot.phase_ns[unsigned(WallPhase::Idle)].load(relaxed);
    s.events = slot.events.load(relaxed);
    s.windows = slot.windows.load(relaxed);
    return s;
}

double
WallProfiler::attributedFraction() const
{
    u64 elapsed = elapsedNs();
    if (elapsed == 0 || slots_.empty())
        return 0;
    u64 sum = 0;
    for (unsigned w = 0; w < slots_.size(); w++)
        sum += shardStats(w).attributed();
    return double(sum) / (double(elapsed) * double(slots_.size()));
}

double
WallProfiler::parallelEfficiency() const
{
    u64 elapsed = elapsedNs();
    if (elapsed == 0 || slots_.empty())
        return 0;
    u64 busy = 0;
    for (unsigned w = 0; w < slots_.size(); w++)
        busy += shardStats(w).busy_ns;
    return double(busy) / (double(elapsed) * double(slots_.size()));
}

double
WallProfiler::barrierWaitFraction() const
{
    u64 elapsed = elapsedNs();
    if (elapsed == 0 || slots_.empty())
        return 0;
    u64 wait = 0;
    for (unsigned w = 0; w < slots_.size(); w++)
        wait += shardStats(w).wait_ns;
    return double(wait) / (double(elapsed) * double(slots_.size()));
}

double
WallProfiler::imbalanceRatio() const
{
    return imbalance_.count() ? imbalance_.mean() / 1000.0 : 0;
}

u64
WallProfiler::spansRecorded() const
{
    u64 n = 0;
    for (const auto &slot : slots_) {
        std::lock_guard<std::mutex> lk(slot->span_mu);
        n += slot->spans.size();
    }
    return n;
}

u64
WallProfiler::spansDropped() const
{
    u64 n = 0;
    for (const auto &slot : slots_)
        n += slot->spans_dropped.load(relaxed);
    return n;
}

std::string
WallProfiler::toChromeJson() const
{
    // Timestamps are wall microseconds since the profiler's epoch, on
    // one thread track per worker; the virtual window each execute
    // span ran rides in args so it can be cross-referenced against the
    // virtual-time trace (TraceRecorder::toChromeJson).
    JsonWriter out;
    out.beginObject().key("traceEvents").beginArray();
    for (unsigned w = 0; w < slots_.size(); w++) {
        out.newline().beginObject().fields(
            "name", "thread_name", "ph", "M", "pid", 1, "tid", w + 1);
        out.key("args").beginObject();
        out.field("name", strprintf("wall/shard%u", w)).endObject();
        out.endObject();
    }
    for (unsigned w = 0; w < slots_.size(); w++) {
        std::vector<Span> spans;
        {
            std::lock_guard<std::mutex> lk(slots_[w]->span_mu);
            spans = slots_[w]->spans;
        }
        for (const Span &s : spans) {
            out.newline().beginObject().fields(
                "name", phaseName(s.phase), "cat", "wall", "ph", "X",
                "pid", 1, "tid", w + 1);
            out.key("ts").fixed(double(s.t0_ns) / 1e3, 3);
            out.key("dur").fixed(double(s.t1_ns - s.t0_ns) / 1e3, 3);
            out.key("args").beginObject();
            if (s.vt_ns >= 0)
                out.fields("vt_ns", s.vt_ns, "vend_ns", s.vend_ns);
            if (s.phase == WallPhase::Execute)
                out.field("events", s.events);
            if (s.phase == WallPhase::Wait && s.idle_ns)
                out.field("idle_ns", s.idle_ns);
            out.field("shard", w).endObject().endObject();
        }
    }
    out.newline().endArray().endObject().newline();
    return out.take();
}

Status
WallProfiler::writeChromeJson(const std::string &path) const
{
    return writeFile(path, toChromeJson());
}

std::string
WallProfiler::statsJson() const
{
    JsonWriter out;
    out.beginObject().fields("workers", workers(), "elapsed_ns",
                             elapsedNs(), "windows", windows());
    out.key("attributed").fixed(attributedFraction(), 4);
    out.key("efficiency").fixed(parallelEfficiency(), 4);
    out.key("barrier_wait_frac").fixed(barrierWaitFraction(), 4);
    out.key("imbalance").fixed(imbalanceRatio(), 3);
    out.fields("timeline_spans", spansRecorded(), "timeline_dropped",
               spansDropped());
    out.key("per_shard").beginArray();
    for (unsigned w = 0; w < workers(); w++) {
        ShardStats s = shardStats(w);
        out.beginObject().fields(
            "shard", w, "busy_ns", s.busy_ns, "calc_ns", s.calc_ns,
            "drain_ns", s.drain_ns, "wait_ns", s.wait_ns, "idle_ns",
            s.idle_ns, "events", s.events, "windows", s.windows);
        out.endObject();
    }
    out.endArray();
    lag_virt_.json(out.key("delivery_lag_virtual"));
    lag_wall_.json(out.key("mailbox_lag_wall"));
    out.endObject();
    return out.take();
}

std::string
WallProfiler::toPrometheus() const
{
    std::string out;
    struct
    {
        const char *name;
        WallPhase phase;
    } series[] = {
        {"shard_busy_ns", WallPhase::Execute},
        {"shard_calc_ns", WallPhase::Calc},
        {"shard_drain_ns", WallPhase::Drain},
        {"shard_wait_ns", WallPhase::Wait},
        {"shard_idle_ns", WallPhase::Idle},
    };
    auto shard = [](unsigned t) {
        return promLabel("shard", std::to_string(t));
    };
    for (const auto &s : series) {
        appendPromType(out, s.name, "counter");
        for (unsigned t = 0; t < workers(); t++)
            appendPromSample(
                out, s.name, shard(t),
                slots_[t]->phase_ns[unsigned(s.phase)].load(relaxed));
    }
    appendPromType(out, "shard_events_total", "counter");
    for (unsigned t = 0; t < workers(); t++)
        appendPromSample(out, "shard_events_total", shard(t),
                         slots_[t]->events.load(relaxed));
    appendPromType(out, "shard_windows_total", "counter");
    appendPromSample(out, "shard_windows_total", "", windows());
    appendPromType(out, "shard_wall_elapsed_ns", "counter");
    appendPromSample(out, "shard_wall_elapsed_ns", "", elapsedNs());
    auto gauge = [&out](const char *name, double v, int decimals) {
        appendPromType(out, name, "gauge");
        appendPromSample(out, name, "", v, decimals);
    };
    gauge("shard_parallel_efficiency", parallelEfficiency(), 4);
    gauge("shard_wall_attributed_fraction", attributedFraction(), 4);
    gauge("shard_imbalance_ratio", imbalanceRatio(), 3);
    for (auto [name, h] :
         {std::pair{"shard_delivery_lag_virtual_ns", &lag_virt_},
          std::pair{"shard_mailbox_lag_wall_ns", &lag_wall_}}) {
        appendPromType(out, name, "histogram");
        appendPromHistogram(out, name, "", *h);
    }
    return out;
}

} // namespace mirage::trace
