#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace perfbench {

using namespace mirage;

Spans *g_spans = nullptr;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

u64
vcpuNs(core::Cloud &cloud)
{
    u64 ns = 0;
    for (const auto &[name, d] : cloud.profiler().domainStats())
        ns += d->run_ns.load();
    return ns;
}

void
runTimed(core::Cloud &cloud, Rep &rep)
{
    u64 vcpu0 = vcpuNs(cloud);
    sim::Engine &eng = cloud.engine();
    Phase p;
    for (u64 n = 1; eng.step(); n++)
        if (n % 1024 == 0)
            p.poll();
    rep.run = p.end();
    rep.vcpu_ns = vcpuNs(cloud) - vcpu0;
}

Lap
lapSince(const Stamp &start)
{
    Stamp now;
    return {now.wall - start.wall, now.cpu - start.cpu, 0};
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

i64
quantile(std::vector<i64> v, double q)
{
    // The same nearest-rank rule as bench_fleet_storm, so the fleet's
    // rows compare digit for digit with BENCH_engine.json.
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t idx = std::size_t(q * double(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

namespace {

/** Counters from the registry's text dump (`name value` lines). */
std::map<std::string, double>
counters(const trace::MetricsRegistry &reg)
{
    std::map<std::string, double> out;
    std::istringstream in(reg.dump());
    std::string name, value;
    while (in >> name) {
        std::getline(in, value);
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end != value.c_str() && value.find('=') == std::string::npos)
            out[name] = v;
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
sumMatching(const std::map<std::string, double> &c,
            const std::string &prefix, const std::string &suffix)
{
    double s = 0;
    for (const auto &[k, v] : c)
        if (k.rfind(prefix, 0) == 0 && k.size() >= suffix.size() &&
            k.compare(k.size() - suffix.size(), suffix.size(), suffix) ==
                0)
            s += v;
    return s;
}

double
histQuantile(const trace::MetricsRegistry &reg, const std::string &name,
             double q)
{
    const trace::Histogram *h = reg.findHistogram(name);
    return h && h->count() ? double(h->quantile(q)) : 0;
}

} // namespace

void
collectLayerCounters(core::Cloud &cloud, u64 ops, Rep &rep)
{
    auto c = counters(cloud.metrics());
    auto get = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    auto &L = rep.layer;
    double dops = double(ops);

    double ran = get("sim.events_run");
    L["sim.events"] = double(cloud.eventsRun());
    L["sim.cancelled_frac"] =
        ratio(get("sim.events_cancelled"),
              ran + get("sim.events_cancelled"));

    L["hypervisor.gnttab_ops"] = get("gnttab.ops");
    double hits = sumMatching(c, "", ".pmap.hits");
    double misses = sumMatching(c, "", ".pmap.misses");
    L["hypervisor.pmap_hit_ratio"] = ratio(hits, hits + misses);
    L["hypervisor.notifies_per_op"] = ratio(get("notify.sent"), dops);
    L["hypervisor.ring_ops_per_op"] =
        ratio(sumMatching(c, "ring.", ""), dops);

    L["drivers.grant_issued"] = get("grant.issued");
    L["drivers.grant_reuse_ratio"] =
        ratio(get("grant.reused"),
              get("grant.issued") + get("grant.reused"));
    L["drivers.netif_rx_stalls"] = get("netif.rx.stalls");
    L["drivers.blk_completed"] = get("blk.completed");
    L["drivers.blk_errors"] = get("blk.errors");

    L["net.tcp_segments"] = get("tcp.segments_sent");
    L["net.retransmit_frac"] =
        ratio(get("tcp.retransmits"), get("tcp.segments_sent"));
    L["net.copies_per_byte"] =
        ratio(get("net.tx.copy_bytes"), get("net.tx.bytes"));
    L["_net.tx_bytes"] = get("net.tx.bytes");
    L["_drivers.grant_acquires"] = get("grant.issued") + get("grant.reused");

    L["runtime.gc_minor_collections"] = get("gc.minor_collections");
    L["runtime.gc_minor_pause_p99_us"] =
        histQuantile(cloud.metrics(), "gc.minor_pause_ns", 0.99) / 1e3;
    L["runtime.gc_bytes_per_op"] =
        ratio(get("gc.bytes_allocated"), dops);
    L["runtime.wakeups"] = get("rt.wakeups");

    L["check.violations"] = double(cloud.checker().violations());

    // Rows only some workloads fill in; 0 where the layer is unused.
    for (const char *k : {"storage.cache_hit_ratio",
                          "storage.nodes_appended_per_write",
                          "storage.blk_reads", "storage.blk_writes",
                          "loadgen.lag_p99_ms", "_storage.gets",
                          "_storage.sets", "_storage.entries"})
        L[k] = 0;

    // Call counts the host-time probes scale by. Every ARP request is
    // broadcast, so each guest's cache learns its sender.
    double pt = double(cloud.dom0().pageTables().updatesApplied());
    double arp_requests = 0, arp_replies = 0;
    for (const auto &g : cloud.guests()) {
        pt += double(g->dom.pageTables().updatesApplied());
        arp_requests += double(g->stack.arp().requestsSent());
        arp_replies += double(g->stack.arp().repliesSent());
    }
    double guests = double(cloud.guests().size());
    L["_hypervisor.pt_updates"] = pt;
    L["_net.neighbours"] = guests;
    L["_net.arp_learns"] = arp_requests * guests + arp_replies;
    L["_sim.pending_peak"] = g_spans ? double(g_spans->pendingPeak()) : 0;
}

namespace {

/** The profiler's top-level frame, folded into a layer name. */
const char *
layerOf(const std::string &frame)
{
    static const std::pair<const char *, const char *> prefixes[] = {
        {"hyp", "hypervisor"},    {"grant.map", "hypervisor"},
        {"grant", "drivers"},     {"net/netif", "drivers"},
        {"blk", "drivers"},       {"net", "net"},
        {"rt", "runtime"},        {"thread", "runtime"},
        {"gc", "runtime"},        {"storage", "storage"},
        {"btree", "storage"},
    };
    for (const auto &[p, layer] : prefixes)
        if (frame.rfind(p, 0) == 0)
            return layer;
    return "other";
}

} // namespace

void
collectTraced(core::Cloud &cloud, const RepConfig &cfg, Rep &rep)
{
    auto &L = rep.layer;
    const trace::MetricsRegistry &reg = cloud.metrics();
    for (const char *s : {"handler", "tcp_tx", "netif_tx", "netback_tx",
                          "blkif", "blkback"})
        L[std::string("trace.stage_") + s + "_ms"] =
            histQuantile(reg,
                         std::string("flow.http.stage.") + s + "_ns",
                         0.5) /
            1e6;

    // Per request: union time of its stages over its traced span.
    std::vector<double> cover;
    for (const auto &f : cloud.flows().recent()) {
        if (!f.done || f.end_ns <= f.start_ns)
            continue;
        u64 staged = 0;
        for (const auto &s : f.stages)
            staged += s.total_ns;
        cover.push_back(double(staged) / double(f.end_ns - f.start_ns));
    }
    std::sort(cover.begin(), cover.end());
    L["trace.stage_coverage"] =
        cover.empty() ? 0 : cover[cover.size() / 2];

    // Virtual self time by top-level profiler frame.
    std::map<std::string, double> share{{"hypervisor", 0},
                                        {"drivers", 0},
                                        {"net", 0},
                                        {"runtime", 0},
                                        {"storage", 0},
                                        {"other", 0}};
    double total = 0;
    std::istringstream folded(cloud.profiler().folded());
    std::string line;
    while (std::getline(folded, line)) {
        std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        double ns = std::strtod(line.c_str() + sp + 1, nullptr);
        std::string top = line.substr(0, std::min(sp, line.find(';')));
        share[layerOf(top)] += ns;
        total += ns;
    }
    for (const auto &[layer, ns] : share)
        L["trace.profile_" + layer + "_share"] = ratio(ns, total);

    for (const char *phase : {"toolstack", "build", "layout",
                              "page_setup", "device_connect",
                              "stack_up"})
        L[std::string("hypervisor.boot_") + phase + "_ms"] = 0;
    for (const auto &[phase, h] : cloud.boots().phaseHistogramsSnapshot())
        if (h.count())
            L["hypervisor.boot_" + phase + "_ms"] =
                double(h.quantile(0.5)) / 1e6;

    // Everything the run recorded, written once it has ended.
    const std::string &p = cfg.out_prefix;
    auto save = [&](const std::string &suffix, const std::string &body) {
        if (FILE *f = std::fopen((p + suffix).c_str(), "w")) {
            std::fputs(body.c_str(), f);
            std::fclose(f);
        } else {
            rep.fail("cannot write " + p + suffix);
        }
    };
    if (Status st = cloud.tracer().writeChromeJson(p + ".trace.json");
        !st.ok())
        rep.fail("trace export: " + st.error().message);
    if (Status st = cloud.profiler().writeFolded(p + ".folded"); !st.ok())
        rep.fail("profile export: " + st.error().message);
    save(".flows.json", cloud.flows().recentJson());
    save(".boots.json", cloud.boots().json());
    save(".metrics.txt", cloud.metrics().dump());
    if (g_spans)
        if (Status st = g_spans->write(p + ".spans.json"); !st.ok())
            rep.fail("span export: " + st.error().message);
}

void
teardown(std::unique_ptr<core::Cloud> &cloud, Rep &rep)
{
    Phase p;
    cloud.reset();
    rep.teardown = p.end();
}

void
checkClean(core::Cloud &cloud, Rep &rep)
{
    if (!cloud.quiescent())
        rep.fail("cloud not quiescent after run");
    if (u64 v = cloud.checker().violations(); v > 0)
        rep.fail(strprintf("checker: %llu violation(s)\n%s",
                           (unsigned long long)v,
                           cloud.checker().report().c_str()));
}

// ---- Spans ---------------------------------------------------------------

namespace {

i64
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
Spans::begin(const char *name, u64 flow)
{
    if (const sim::Engine *e = sim::Engine::current())
        pending_peak_ = std::max(pending_peak_, e->pendingEvents());
    int id = int(spans_.size());
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, hostNs(), 0, parent, flow});
    open_.push_back(id);
    return id;
}

void
Spans::end(int id)
{
    spans_[std::size_t(id)].end_ns = hostNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

double
Spans::seconds(const std::string &name, bool self) const
{
    std::vector<i64> child_ns(spans_.size(), 0);
    for (const auto &s : spans_)
        if (s.parent >= 0)
            child_ns[std::size_t(s.parent)] += s.end_ns - s.start_ns;
    i64 ns = 0;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        if (name != s.name)
            continue;
        // A span nested in one of its own name is already counted.
        bool nested = false;
        for (int p = s.parent; p >= 0 && !nested;
             p = spans_[std::size_t(p)].parent)
            nested = name == spans_[std::size_t(p)].name;
        if (!nested)
            ns += s.end_ns - s.start_ns - (self ? child_ns[i] : 0);
    }
    return double(ns) / 1e9;
}

Status
Spans::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return Error(Error::Kind::Io, "cannot open " + path);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d,\"flow\":%llu}%s\n",
                     i, s.name, (long long)s.start_ns,
                     (long long)s.end_ns, s.parent,
                     (unsigned long long)s.flow,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return Status::success();
}

} // namespace perfbench
