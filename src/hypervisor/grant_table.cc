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

GrantTable::Entry *
GrantTable::find(GrantRef ref)
{
    auto it = index_.find(ref);
    return it == index_.end() ? nullptr : &slots_[it->second];
}

GrantRef
GrantTable::grantAccess(DomId peer, Cstruct page, bool readonly)
{
    trace::bump(c_ops_);
    GrantRef ref = next_ref_++;
    u32 slot;
    if (free_slots_.empty()) {
        slot = u32(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    slots_[slot] = Entry{ref, peer, std::move(page), readonly, 0};
    index_.emplace(ref, slot);
    if (check::Checker *ck = checker())
        ck->grantCreated(owner_, ref, peer);
    return ref;
}

Status
GrantTable::endAccess(GrantRef ref)
{
    trace::bump(c_ops_);
    check::Checker *ck = checker();
    auto it = index_.find(ref);
    if (it == index_.end()) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return notFoundError("endAccess on unknown grant");
    }
    u32 slot = it->second;
    if (slots_[slot].mapCount > 0) {
        if (ck)
            ck->grantEndAccess(owner_, ref, false);
        return stateError("grant still mapped by peer");
    }
    if (ck)
        ck->grantEndAccess(owner_, ref, true);
    index_.erase(it);
    slots_[slot] = Entry{}; // releases the page view now
    free_slots_.push_back(slot);
    return Status::success();
}

Result<Cstruct>
GrantTable::mapFor(DomId peer, GrantRef ref, bool write)
{
    trace::bump(c_ops_);
    check::Checker *ck = checker();
    Entry *found = find(ref);
    if (!found) {
        if (ck)
            ck->grantMap(owner_, ref, peer, false);
        return notFoundError("map of unknown grant ref");
    }
    Entry &e = *found;
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
    Entry *found = find(ref);
    if (!found) {
        if (ck)
            ck->grantUnmap(owner_, ref, peer, false);
        return notFoundError("unmap of unknown grant ref");
    }
    Entry &e = *found;
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
    auto it = index_.find(ref);
    return it == index_.end() ? 0 : slots_[it->second].mapCount;
}

GrantTable::Handle
GrantTable::handleOf(GrantRef ref) const
{
    auto it = index_.find(ref);
    return it == index_.end() ? Handle{} : Handle{it->second, ref};
}

void
GrantTable::releaseAll()
{
    index_.clear();
    free_slots_.clear();
    slots_.clear();
}

} // namespace mirage::xen
