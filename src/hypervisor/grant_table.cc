#include "hypervisor/grant_table.h"

#include "base/logging.h"
#include "check/check.h"
#include "sim/engine.h"
#include "trace/metrics.h"

namespace mirage::xen {

void
GrantTable::bindEngine(const sim::Engine *engine)
{
    engine_ = engine;
    c_ops_ = trace::total(engine ? engine->metrics() : nullptr,
                          "gnttab.ops", trace::Listed::OnceCounted);
}

check::Checker *
GrantTable::checker() const
{
    if (!engine_)
        return nullptr;
    check::Checker *ck = engine_->checker();
    return (ck && ck->enabled()) ? ck : nullptr;
}

GrantRef
GrantTable::grantAccess(DomId peer, Cstruct page, bool readonly)
{
    trace::bump(c_ops_);
    GrantRef ref = next_ref_++;
    entries_.emplace(ref, Entry{peer, std::move(page), readonly, 0});
    if (check::Checker *ck = checker())
        ck->grantCreated(owner_, ref, peer);
    return ref;
}

Status
GrantTable::endAccess(GrantRef ref)
{
    trace::bump(c_ops_);
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return notFoundError("endAccess on unknown grant");
    }
    if (it->second.mapCount > 0) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return stateError("grant still mapped by peer");
    }
    if (ck)
        ck->grantEndAccess(owner_, ref, true);
    entries_.erase(it);
    return Status::success();
}

Result<Cstruct>
GrantTable::mapFor(DomId peer, GrantRef ref, bool write)
{
    trace::bump(c_ops_);
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantMap(owner_, ref, peer, false);
        return notFoundError("map of unknown grant ref");
    }
    Entry &e = it->second;
    if (e.peer != peer || (write && e.readonly)) {
        if (ck)
            ck->grantMap(owner_, ref, peer, false);
        return stateError(e.peer != peer
                              ? "grant not issued to this domain"
                              : "write map of read-only grant");
    }
    e.mapCount++;
    if (ck)
        ck->grantMap(owner_, ref, peer, true);
    return e.page;
}

Status
GrantTable::unmapFor(DomId peer, GrantRef ref)
{
    trace::bump(c_ops_);
    check::Checker *ck = checker();
    auto it = entries_.find(ref);
    if (it == entries_.end()) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return notFoundError("unmap of unknown grant ref");
    }
    Entry &e = it->second;
    if (e.peer != peer) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return stateError("unmap by wrong domain");
    }
    if (e.mapCount == 0) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return stateError("unmap of unmapped grant");
    }
    e.mapCount--;
    if (ck)
        ck->grantUnmap(owner_, ref, peer, true);
    return Status::success();
}

u32
GrantTable::mapCountOf(GrantRef ref) const
{
    auto it = entries_.find(ref);
    return it == entries_.end() ? 0 : it->second.mapCount;
}

} // namespace mirage::xen
