#include "trace/profile.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/telemetry.h"

namespace mirage::trace {

thread_local Profiler::ScopeId Profiler::current_tls_ = 0;

// ---- DomainStats -----------------------------------------------------------

RingMark &
DomainStats::ring(const std::string &name)
{
    std::lock_guard<std::mutex> lk(rings_mu_);
    return rings.try_emplace(name, name).first->second;
}

void
DomainStats::noteRing(RingMark &r, u32 occupancy, u32 capacity,
                      bool alert_on_full)
{
    bool raise = false;
    {
        std::lock_guard<std::mutex> lk(rings_mu_);
        r.capacity = capacity;
        if (occupancy > r.hwm)
            r.hwm = occupancy;
        if (alert_on_full && occupancy >= capacity && !r.full_alerted) {
            r.full_alerted = true;
            raise = true;
        }
    }
    if (raise && owner)
        owner->alert("ring_full",
                     strprintf("%s: ring %s observed full "
                               "(%u/%u slots)",
                               name.c_str(), r.name.c_str(), occupancy,
                               capacity));
}

// ---- Profiler: scope tree --------------------------------------------------

Profiler::Profiler(Telemetry &t)
    : t_(t), c_alerts_(t.metrics.counter("profile.alerts"))
{
}

u32
Profiler::childOf(u32 parent, const char *label)
{
    for (u32 c : nodes_[parent].children)
        if (nodes_[c].label == label)
            return c;
    u32 id = u32(nodes_.size());
    Node n;
    n.label = label;
    n.parent = parent;
    nodes_.push_back(std::move(n));
    nodes_[parent].children.push_back(id);
    return id;
}

Profiler::ScopeId
Profiler::push(const char *label)
{
    ScopeId saved = current_tls_;
    if (enabled_) {
        std::lock_guard<std::mutex> lk(mu_);
        current_tls_ = childOf(current_tls_, label);
    }
    return saved;
}

void
Profiler::charge(const char *leaf, u64 ns, i64 now_ns)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    u32 node = childOf(current_tls_, leaf);
    nodes_[node].self_ns += ns;
    nodes_[node].samples++;
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    // Subtree totals accumulate up the ancestry; depth is the static
    // scope nesting (single digits), not anything time-dependent.
    for (u32 at = node; at != 0; at = nodes_[at].parent)
        nodes_[at].total_ns += ns;
    nodes_[0].total_ns += ns;
    if (t_.tracer.enabled() && now_ns >= next_sample_ns_)
        emitCounterSample(now_ns);
}

void
Profiler::emitCounterSample(i64 now_ns)
{
    next_sample_ns_ = now_ns + sample_interval_ns_;
    // One multi-series counter event: ns charged per top-level scope
    // since the previous sample. Perfetto stacks the series into a
    // CPU-attribution area chart alongside the span tracks.
    JsonWriter args;
    args.beginObject();
    for (u32 c : nodes_[0].children) {
        Node &n = nodes_[c];
        args.field(n.label, n.total_ns - n.emitted_ns);
        n.emitted_ns = n.total_ns;
    }
    args.endObject();
    t_.tracer.counter(Cat::Cpu, "prof.cpu_ns", TimePoint(now_ns),
                      args.take());
}

u64
Profiler::unattributedNsLocked() const
{
    u64 ns = nodes_[0].self_ns;
    for (u32 c : nodes_[0].children)
        if (nodes_[c].label == "cpu.work")
            ns += nodes_[c].total_ns;
    return ns;
}

u64
Profiler::unattributedNs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return unattributedNsLocked();
}

double
Profiler::attributedFractionLocked() const
{
    u64 total = total_ns_.load(std::memory_order_relaxed);
    if (total == 0)
        return 1.0;
    return 1.0 - double(unattributedNsLocked()) / double(total);
}

double
Profiler::attributedFraction() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return attributedFractionLocked();
}

std::string
Profiler::pathOf(u32 node) const
{
    if (node == 0)
        return "(root)";
    std::vector<const std::string *> frames;
    for (u32 at = node; at != 0; at = nodes_[at].parent)
        frames.push_back(&nodes_[at].label);
    std::string path;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (!path.empty())
            path += ";";
        path += **it;
    }
    return path;
}

u32
Profiler::findPath(const std::string &path) const
{
    u32 at = 0;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t sep = path.find(';', pos);
        std::string frame = path.substr(
            pos, sep == std::string::npos ? std::string::npos : sep - pos);
        u32 next = 0;
        for (u32 c : nodes_[at].children) {
            if (nodes_[c].label == frame) {
                next = c;
                break;
            }
        }
        if (next == 0)
            return 0; // no such child (root is never a valid child)
        at = next;
        if (sep == std::string::npos)
            break;
        pos = sep + 1;
    }
    return at;
}

u64
Profiler::selfNs(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    u32 n = findPath(path);
    return n ? nodes_[n].self_ns : 0;
}

u64
Profiler::samples(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    u32 n = findPath(path);
    return n ? nodes_[n].samples : 0;
}

std::string
Profiler::folded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (u32 i = 1; i < u32(nodes_.size()); i++) {
        if (nodes_[i].self_ns == 0)
            continue;
        out += pathOf(i);
        out += strprintf(" %llu\n",
                         (unsigned long long)nodes_[i].self_ns);
    }
    if (nodes_[0].self_ns > 0)
        out += strprintf("(root) %llu\n",
                         (unsigned long long)nodes_[0].self_ns);
    return out;
}

Status
Profiler::writeFolded(const std::string &path) const
{
    return writeFile(path, folded());
}

// ---- Per-domain accounting -------------------------------------------------

DomainStats &
Profiler::domain(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = domains_.find(name);
    if (it == domains_.end()) {
        auto stats = std::make_unique<DomainStats>();
        stats->name = name;
        stats->owner = this;
        it = domains_.emplace(name, std::move(stats)).first;
    }
    return *it->second;
}

const DomainStats *
Profiler::findDomain(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = domains_.find(name);
    return it == domains_.end() ? nullptr : it->second.get();
}

std::string
Profiler::topJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginObject().key("domains").beginArray();
    for (const auto &[name, d] : domains_) {
        w.beginObject().field("name", name);
        w.key("cpu").beginObject().fields(
            "run_ns", d->run_ns.value(), "steal_ns", d->steal_ns.value(),
            "blocked_ns", d->blocked_ns.value(), "polls", d->polls.value());
        w.endObject();
        w.key("evtchn").beginObject().fields(
            "sent", d->notifies_sent.value(), "received",
            d->notifies_received.value());
        w.endObject();
        w.key("rings").beginObject();
        {
            std::lock_guard<std::mutex> rlk(d->rings_mu_);
            for (const auto &[rname, ring] : d->rings) {
                if (ring.capacity == 0)
                    continue; // resolved but never noted
                w.key(rname).beginObject();
                w.fields("hwm", ring.hwm, "capacity", ring.capacity);
                w.endObject();
            }
        }
        w.endObject();
        w.key("gc").beginObject().fields(
            "minor", d->gc_minor_pause_ns.count(), "major",
            d->gc_major_pause_ns.count(),
            "promoted_bytes", d->gc_promoted_bytes.value(),
            "live_after_major_bytes", d->gc_live_after_major_bytes.value());
        d->gc_minor_pause_ns.json(w.key("minor_pause"));
        d->gc_major_pause_ns.json(w.key("major_pause"));
        w.endObject().endObject();
    }
    w.endArray().field("charged_ns", totalNs());
    w.key("attributed_fraction").fixed(attributedFractionLocked(), 4);
    w.field("alerts", alerts()).endObject();
    return w.take();
}

std::string
Profiler::topText() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out =
        strprintf("%-12s %10s %10s %10s %6s %7s %7s %6s %6s %10s\n",
                  "NAME", "RUN(ms)", "STEAL(ms)", "BLOCK(ms)", "POLLS",
                  "NTF-TX", "NTF-RX", "GCMIN", "GCMAJ", "GCP99(us)");
    for (const auto &[name, d] : domains_) {
        out += strprintf(
            "%-12s %10.2f %10.2f %10.2f %6llu %7llu %7llu %6llu %6llu "
            "%10.1f\n",
            name.c_str(), double(d->run_ns.value()) / 1e6,
            double(d->steal_ns.value()) / 1e6,
            double(d->blocked_ns.value()) / 1e6,
            (unsigned long long)d->polls.value(),
            (unsigned long long)d->notifies_sent.value(),
            (unsigned long long)d->notifies_received.value(),
            (unsigned long long)d->gc_minor_pause_ns.count(),
            (unsigned long long)d->gc_major_pause_ns.count(),
            double(d->gc_minor_pause_ns.quantile(0.99)) / 1e3);
        std::lock_guard<std::mutex> rlk(d->rings_mu_);
        for (const auto &[rname, ring] : d->rings) {
            if (ring.capacity == 0)
                continue; // resolved but never noted
            out += strprintf("  ring %-20s hwm %2u / %u%s\n",
                             rname.c_str(), ring.hwm, ring.capacity,
                             ring.full_alerted ? "  [was full]" : "");
        }
    }
    out += strprintf("charged %.2f ms, %.1f%% attributed, %llu alert(s)\n",
                     double(totalNs()) / 1e6,
                     attributedFractionLocked() * 100.0,
                     (unsigned long long)alerts());
    return out;
}

// ---- Watchdogs / alerts ----------------------------------------------------

void
Profiler::alert(const char *kind, const std::string &detail)
{
    c_alerts_.inc();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (alert_log_.size() >= alertLogCapacity)
            alert_log_.erase(alert_log_.begin());
        alert_log_.push_back(std::string(kind) + ": " + detail);
    }
    // The flight-recorder dump takes the tracer's lock; keep it outside
    // ours.
    warn("profiler alert [%s]: %s", kind, detail.c_str());
    t_.dumpFlight();
}

void
Profiler::checkGcPause(u64 pause_ns, const char *kind,
                       const std::string &heap)
{
    if (gc_pause_alert_ns_ == 0 || pause_ns < gc_pause_alert_ns_)
        return;
    alert("gc_pause", strprintf("%s: %s pause of %llu us (threshold "
                                "%llu us)",
                                heap.c_str(), kind,
                                (unsigned long long)(pause_ns / 1000),
                                (unsigned long long)(gc_pause_alert_ns_ /
                                                     1000)));
}

} // namespace mirage::trace
