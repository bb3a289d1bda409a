#include "check/check.h"

#include <algorithm>

#include "base/logging.h"
#include "trace/metrics.h"

namespace mirage::check {

namespace {

/** Signed distance between two free-running u32 ring counters. */
inline i32
counterDelta(u32 later, u32 earlier)
{
    return i32(later - earlier);
}

} // namespace

const char *
subsystemName(Subsystem s)
{
    switch (s) {
      case Subsystem::Grant: return "grant";
      case Subsystem::Ring: return "ring";
      case Subsystem::Gc: return "gc";
      case Subsystem::Event: return "event";
      case Subsystem::Net: return "net";
    }
    return "?";
}

void
Checker::attachMetrics(trace::MetricsRegistry &reg)
{
    c_total_ = &reg.counter("check.violations");
    for (std::size_t i = 0; i < subsystemCount; i++)
        c_per_[i] = &reg.counter(std::string("check.") +
                                 subsystemName(Subsystem(i)) +
                                 ".violations");
    c_gc_leaked_ = &reg.counter("check.gc.leaked_cells");
}

void
Checker::violation(Subsystem s, const char *rule,
                   const std::string &detail)
{
    total_.fetch_add(1, std::memory_order_relaxed);
    per_[std::size_t(s)].fetch_add(1, std::memory_order_relaxed);
    std::string line = strprintf("%s.%s: %s", subsystemName(s), rule,
                                 detail.c_str());
    {
        std::lock_guard<std::mutex> lk(last_mu_);
        last_ = line;
    }
    trace::bump(c_total_);
    trace::bump(c_per_[std::size_t(s)]);
    if (violation_hook_)
        violation_hook_();
    if (mode_ == Mode::Fatal)
        panic("check: %s", line.c_str());
    warn("check: %s", line.c_str());
}

std::string
Checker::report() const
{
    std::string out;
    for (std::size_t i = 0; i < subsystemCount; i++) {
        u64 n = per_[i].load(std::memory_order_relaxed);
        if (n == 0)
            continue;
        out += strprintf("check.%s.violations %llu\n",
                         subsystemName(Subsystem(i)),
                         (unsigned long long)n);
    }
    if (gcLeakedCells() > 0)
        out += strprintf("check.gc.leaked_cells %llu\n",
                         (unsigned long long)gcLeakedCells());
    return out;
}

// ---- Grant tables ----------------------------------------------------------

Checker::GrantShadow *
Checker::findGrant(u32 owner, u32 ref)
{
    auto d = doms_.find(owner);
    if (d == doms_.end())
        return nullptr;
    auto it = d->second.grants.find(ref);
    return it == d->second.grants.end() ? nullptr : &it->second;
}

bool
Checker::wasRevoked(u32 owner, u32 ref) const
{
    auto d = doms_.find(owner);
    return d != doms_.end() && ref != 0 && ref <= d->second.max_ref;
}

void
Checker::setMapCount(u32 owner, u32 ref, GrantShadow &g, u32 n)
{
    if ((g.mapCount > 0) != (n > 0)) {
        std::unordered_set<u64> &mapped = doms_[g.peer].mapped;
        if (n > 0)
            mapped.insert(grantKey(owner, ref));
        else
            mapped.erase(grantKey(owner, ref));
    }
    g.mapCount = n;
}

void
Checker::grantCreated(u32 owner, u32 ref, u32 peer)
{
    std::lock_guard<std::mutex> lk(mu_);
    DomainShadow &d = doms_[owner];
    d.max_ref = std::max(d.max_ref, ref);
    if (!d.grants.try_emplace(ref, GrantShadow{peer, 0}).second)
        violation(Subsystem::Grant, "ref_reused",
                  strprintf("dom%u re-issued active ref %u", owner, ref));
}

void
Checker::grantEndAccess(u32 owner, u32 ref, bool table_ok)
{
    std::lock_guard<std::mutex> lk(mu_);
    GrantShadow *g = findGrant(owner, ref);
    if (!g) {
        violation(Subsystem::Grant,
                  wasRevoked(owner, ref) ? "double_revoke"
                                         : "revoke_unknown_ref",
                  strprintf("dom%u endAccess(ref=%u)", owner, ref));
        return;
    }
    if (g->mapCount > 0) {
        violation(Subsystem::Grant, "revoke_while_mapped",
                  strprintf("dom%u endAccess(ref=%u) with %u mappings "
                            "held by dom%u",
                            owner, ref, g->mapCount, g->peer));
        // The table refuses this too; the grant stays active.
        return;
    }
    if (table_ok)
        doms_[owner].grants.erase(ref);
}

void
Checker::grantMap(u32 owner, u32 ref, u32 peer, bool table_ok)
{
    std::lock_guard<std::mutex> lk(mu_);
    GrantShadow *g = findGrant(owner, ref);
    if (!g) {
        violation(Subsystem::Grant,
                  wasRevoked(owner, ref) ? "use_after_revoke"
                                         : "map_unknown_ref",
                  strprintf("dom%u mapped dom%u's ref %u", peer, owner,
                            ref));
        return;
    }
    if (!table_ok) {
        violation(Subsystem::Grant, "map_denied",
                  strprintf("dom%u denied mapping dom%u's ref %u "
                            "(wrong peer or write on read-only)",
                            peer, owner, ref));
        return;
    }
    setMapCount(owner, ref, *g, g->mapCount + 1);
}

void
Checker::grantUnmap(u32 owner, u32 ref, u32 peer, bool table_ok)
{
    std::lock_guard<std::mutex> lk(mu_);
    GrantShadow *g = findGrant(owner, ref);
    if (!g) {
        violation(Subsystem::Grant,
                  wasRevoked(owner, ref) ? "use_after_revoke"
                                         : "unmap_unknown_ref",
                  strprintf("dom%u unmapped dom%u's ref %u", peer,
                            owner, ref));
        return;
    }
    if (g->peer != peer) {
        violation(Subsystem::Grant, "unmap_wrong_domain",
                  strprintf("dom%u unmapped dom%u's ref %u issued to "
                            "dom%u",
                            peer, owner, ref, g->peer));
        return;
    }
    if (g->mapCount == 0) {
        violation(Subsystem::Grant, "unmap_without_map",
                  strprintf("dom%u unmapped dom%u's ref %u which has "
                            "no mapping",
                            peer, owner, ref));
        return;
    }
    if (table_ok)
        setMapCount(owner, ref, *g, g->mapCount - 1);
}

void
Checker::domainTeardown(u32 dom)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = doms_.find(dom);
    if (it == doms_.end())
        return;
    DomainShadow &self = it->second;
    // Grants it issued that a peer still maps. Clearing the count also
    // drops them from the peer's (or its own) `mapped` index.
    for (auto &[ref, g] : self.grants) {
        if (g.mapCount == 0)
            continue;
        violation(Subsystem::Grant, "mapping_outlives_domain",
                  strprintf("dom%u tore down with ref %u still "
                            "mapped %u time(s) by dom%u",
                            dom, ref, g.mapCount, g.peer));
        setMapCount(dom, ref, g, 0);
    }
    // Peers' grants it still maps: the mapper is gone, so the mappings
    // die with it.
    for (u64 key : self.mapped) {
        u32 owner = u32(key >> 32), ref = u32(key);
        GrantShadow *g = findGrant(owner, ref);
        if (!g)
            continue;
        violation(Subsystem::Grant, "teardown_holding_mappings",
                  strprintf("dom%u tore down holding %u mapping(s) "
                            "of dom%u's ref %u",
                            dom, g->mapCount, owner, ref));
        g->mapCount = 0;
    }
    doms_.erase(dom);
}

std::size_t
Checker::shadowMappedGrants() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &[dom, d] : doms_)
        for (const auto &[ref, g] : d.grants)
            if (g.mapCount > 0)
                n++;
    return n;
}

// ---- Shared rings ----------------------------------------------------------

u32
Checker::ringAttach(const void *page, const char *name, u32 slots,
                    u32 req_prod, u32 rsp_prod)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ring_ids_.find(page);
    if (it != ring_ids_.end())
        return it->second;
    u32 id = u32(rings_.size());
    // Published counters are adopted as-is; a ring attached mid-stream
    // (reconnect) starts with everything published considered consumed.
    rings_.push_back(RingShadow{name, slots, req_prod, rsp_prod,
                                req_prod, rsp_prod, rsp_prod, req_prod});
    ring_ids_.emplace(page, id);
    return id;
}

void
Checker::ringStartRequest(u32 ring, u32 new_prod_pvt, u32 rsp_cons)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (u32(new_prod_pvt - rsp_cons) > s.slots)
        violation(Subsystem::Ring, "request_overrun",
                  strprintf("%s: %u requests in flight exceeds %u slots",
                            s.name.c_str(), new_prod_pvt - rsp_cons,
                            s.slots));
}

void
Checker::ringPublishRequests(u32 ring, u32 old_prod, u32 new_prod)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (old_prod != s.reqProd)
        violation(Subsystem::Ring, "req_prod_tampered",
                  strprintf("%s: req_prod is %u but protocol last "
                            "published %u",
                            s.name.c_str(), old_prod, s.reqProd));
    i32 d = counterDelta(new_prod, old_prod);
    if (d < 0)
        violation(Subsystem::Ring, "req_prod_backwards",
                  strprintf("%s: req_prod %u -> %u", s.name.c_str(),
                            old_prod, new_prod));
    else if (u32(d) > s.slots)
        violation(Subsystem::Ring, "req_prod_overrun",
                  strprintf("%s: published %d requests into %u slots",
                            s.name.c_str(), d, s.slots));
    s.reqProd = new_prod; // adopt even after a violation: no cascades
}

void
Checker::ringConsumeRequest(u32 ring, u32 cons, u32 prod)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (prod != s.reqProd) {
        violation(Subsystem::Ring, "req_prod_tampered",
                  strprintf("%s: consuming with req_prod %u but "
                            "protocol last published %u",
                            s.name.c_str(), prod, s.reqProd));
        s.reqProd = prod;
    }
    u32 avail = prod - cons;
    if (avail == 0)
        violation(Subsystem::Ring, "consume_unpublished_request",
                  strprintf("%s: req_cons %u caught req_prod",
                            s.name.c_str(), cons));
    else if (avail > s.slots)
        violation(Subsystem::Ring, "req_prod_overrun",
                  strprintf("%s: %u unconsumed requests in %u slots",
                            s.name.c_str(), avail, s.slots));
    s.reqCons = cons + 1;
}

void
Checker::ringStartResponse(u32 ring, u32 new_rsp_pvt, u32 req_cons)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (counterDelta(new_rsp_pvt, req_cons) > 0)
        violation(Subsystem::Ring, "response_without_request",
                  strprintf("%s: response %u started beyond consumed "
                            "request %u",
                            s.name.c_str(), new_rsp_pvt, req_cons));
}

void
Checker::ringPublishResponses(u32 ring, u32 old_prod, u32 new_prod)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (old_prod != s.rspProd)
        violation(Subsystem::Ring, "rsp_prod_tampered",
                  strprintf("%s: rsp_prod is %u but protocol last "
                            "published %u",
                            s.name.c_str(), old_prod, s.rspProd));
    i32 d = counterDelta(new_prod, old_prod);
    if (d < 0)
        violation(Subsystem::Ring, "rsp_prod_backwards",
                  strprintf("%s: rsp_prod %u -> %u", s.name.c_str(),
                            old_prod, new_prod));
    else if (u32(d) > s.slots)
        violation(Subsystem::Ring, "rsp_prod_overrun",
                  strprintf("%s: published %d responses into %u slots",
                            s.name.c_str(), d, s.slots));
    if (counterDelta(new_prod, s.reqCons) > 0)
        violation(Subsystem::Ring, "response_without_request",
                  strprintf("%s: rsp_prod %u beyond consumed requests "
                            "%u",
                            s.name.c_str(), new_prod, s.reqCons));
    s.rspProd = new_prod;
}

void
Checker::ringConsumeResponse(u32 ring, u32 cons, u32 prod)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (prod != s.rspProd) {
        violation(Subsystem::Ring, "consume_unpublished_response",
                  strprintf("%s: consuming with rsp_prod %u but "
                            "protocol last published %u",
                            s.name.c_str(), prod, s.rspProd));
        s.rspProd = prod;
    }
    u32 avail = prod - cons;
    if (avail == 0)
        violation(Subsystem::Ring, "consume_unpublished_response",
                  strprintf("%s: rsp_cons %u caught rsp_prod",
                            s.name.c_str(), cons));
    else if (avail > s.slots)
        violation(Subsystem::Ring, "rsp_prod_overrun",
                  strprintf("%s: %u unconsumed responses in %u slots",
                            s.name.c_str(), avail, s.slots));
    s.rspCons = cons + 1;
}

void
Checker::ringRefuseResponses(u32 ring, u32 prod, u32 req_prod_pvt)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    // Responses at or past both the requests issued and the last
    // refusal are new. Past a whole ring's worth they are not slots at
    // all: the rest is one rsp_prod_overrun, not a count per index.
    u32 from = counterDelta(s.rspRefused, req_prod_pvt) > 0 ? s.rspRefused
                                                             : req_prod_pvt;
    i32 excess = counterDelta(prod, from);
    if (excess <= 0)
        return;
    s.rspRefused = prod;
    u32 counted = u32(excess) < s.slots ? u32(excess) : s.slots;
    for (u32 i = 0; i < counted; i++)
        violation(Subsystem::Ring, "unsolicited_response",
                  strprintf("%s: response %u answers no outstanding "
                            "request (%u issued); refused",
                            s.name.c_str(), from + i, req_prod_pvt));
    if (u32(excess) > s.slots)
        violation(Subsystem::Ring, "rsp_prod_overrun",
                  strprintf("%s: rsp_prod %u is %d past %u issued "
                            "requests in %u slots; refused",
                            s.name.c_str(), prod, excess, req_prod_pvt,
                            s.slots));
}

void
Checker::ringRefuseRequests(u32 ring, u32 prod, u32 cons)
{
    std::lock_guard<std::mutex> lk(mu_);
    RingShadow &s = rings_.at(ring);
    if (prod == s.reqRefused)
        return; // this index was refused and counted already
    s.reqRefused = prod;
    violation(Subsystem::Ring, "req_prod_overrun",
              strprintf("%s: req_prod %u is %u past req_cons %u in %u "
                        "slots; refused",
                        s.name.c_str(), prod, prod - cons, cons, s.slots));
}

// ---- GC handles ------------------------------------------------------------

void
Checker::gcAlloc(const void *heap, u32 ref)
{
    std::lock_guard<std::mutex> lk(mu_);
    HeapShadow &h = heaps_[heap];
    if (ref >= h.state.size())
        h.state.resize(std::size_t(ref) + 1, 0);
    if (h.state[ref] == 1) {
        violation(Subsystem::Gc, "alloc_live_cell",
                  strprintf("allocator handed out live cell %u", ref));
        return;
    }
    h.state[ref] = 1;
}

bool
Checker::gcRelease(const void *heap, u32 ref)
{
    std::lock_guard<std::mutex> lk(mu_);
    HeapShadow &h = heaps_[heap];
    if (ref >= h.state.size() || h.state[ref] == 0) {
        violation(Subsystem::Gc, "release_unknown_cell",
                  strprintf("release of never-allocated cell %u", ref));
        return false;
    }
    if (h.state[ref] == 2) {
        violation(Subsystem::Gc, "double_release",
                  strprintf("cell %u released twice", ref));
        return false;
    }
    h.state[ref] = 2;
    return true;
}

void
Checker::gcHeapShutdown(const void *heap, u64 live_cells,
                        u64 live_bytes)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (live_cells > 0) {
        gc_leaked_cells_ += live_cells;
        gc_leaked_bytes_ += live_bytes;
        trace::bump(c_gc_leaked_, live_cells);
        warn("check: gc.leak_report: %llu live cell(s), %llu bytes at "
             "heap shutdown",
             (unsigned long long)live_cells,
             (unsigned long long)live_bytes);
    }
    heaps_.erase(heap);
}

} // namespace mirage::check
