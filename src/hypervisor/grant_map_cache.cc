#include "hypervisor/grant_map_cache.h"

#include "hypervisor/xen.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "trace/metrics.h"

namespace mirage::xen {

GrantMapCache::GrantMapCache(Domain &mapper, const std::string &prefix)
    : dom_(mapper),
      hits_(trace::total(mapper.engine().metrics(), prefix + ".pmap.hits")),
      misses_(trace::total(mapper.engine().metrics(),
                           prefix + ".pmap.misses")),
      evictions_(trace::total(mapper.engine().metrics(),
                              prefix + ".pmap.evictions"))
{
}

Result<Cstruct>
GrantMapCache::map(GrantRef gref)
{
    if (!frontend_)
        return stateError("grant map cache not bound to a frontend");
    auto it = entries_.find(gref);
    if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        hits_.inc();
        dom_.vcpu().charge(sim::costs().grantMapHit, "grant.map_hit",
                           trace::Cat::Hypervisor);
        return it->second.page;
    }
    auto page =
        dom_.hypervisor().grantMap(dom_, *frontend_, gref, true);
    if (!page.ok())
        return page;
    misses_.inc();
    lru_.push_front(gref);
    entries_.emplace(gref, Entry{page.value(), lru_.begin()});
    evictIfNeeded();
    return page;
}

void
GrantMapCache::evictIfNeeded()
{
    std::size_t cap = sim::tuning().backendMapCacheCap;
    while (entries_.size() > cap && !lru_.empty()) {
        GrantRef victim = lru_.back();
        lru_.pop_back();
        auto it = entries_.find(victim);
        if (it == entries_.end())
            continue;
        dom_.hypervisor().grantUnmap(dom_, *frontend_, victim);
        entries_.erase(it);
        evictions_.inc();
    }
}

void
GrantMapCache::unmapAll()
{
    if (!frontend_) {
        entries_.clear();
        lru_.clear();
        return;
    }
    for (auto &[gref, entry] : entries_)
        dom_.hypervisor().grantUnmap(dom_, *frontend_, gref);
    entries_.clear();
    lru_.clear();
}

} // namespace mirage::xen
