#include "hypervisor/grant_map_cache.h"

#include <algorithm>

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

namespace {

/** Home slot of @p gref in a power-of-two index (mask = size - 1).
 *  Grefs are issued in sequence, so spread consecutive ones apart. */
inline std::size_t
slotFor(GrantRef gref, std::size_t mask)
{
    u32 h = gref * 0x9e3779b1u;
    return std::size_t(h ^ (h >> 15)) & mask;
}

} // namespace

std::size_t
GrantMapCache::probe(GrantRef gref) const
{
    std::size_t mask = index_.size() - 1;
    std::size_t i = slotFor(gref, mask);
    while (index_[i].pos != 0 && index_[i].gref != gref)
        i = (i + 1) & mask;
    return i;
}

void
GrantMapCache::reindex(std::size_t slots)
{
    index_.assign(slots, Slot{});
    for (std::size_t e = 0; e < entries_.size(); e++)
        index_[probe(entries_[e].gref)] = Slot{entries_[e].gref, u32(e + 1)};
}

void
GrantMapCache::erase(std::size_t at)
{
    // Backward-shift deletion: close the gap so every later entry of
    // the probe run stays reachable from its home slot.
    std::size_t mask = index_.size() - 1;
    std::size_t hole = probe(entries_[at].gref);
    for (std::size_t i = (hole + 1) & mask; index_[i].pos != 0;
         i = (i + 1) & mask) {
        std::size_t home = slotFor(index_[i].gref, mask);
        // Move i into the hole unless its home lies in (hole, i].
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole] = Slot{};
    // Keep the vector dense: the last entry takes the freed position.
    std::size_t last = entries_.size() - 1;
    if (at != last) {
        index_[probe(entries_[last].gref)].pos = u32(at + 1);
        entries_[at] = std::move(entries_[last]);
    }
    entries_.pop_back();
}

Cstruct *
GrantMapCache::map(GrantRef gref)
{
    if (!frontend_)
        return nullptr;
    if (!index_.empty()) {
        if (u32 at = index_[probe(gref)].pos; at != 0) {
            Entry &e = entries_[at - 1];
            e.used = ++clock_;
            hits_.inc();
            dom_.vcpu().charge(sim::costs().grantMapHit, "grant.map_hit",
                               trace::Cat::Hypervisor);
            return &e.page;
        }
    }
    auto page =
        dom_.hypervisor().grantMap(dom_, *frontend_, gref, true);
    if (!page.ok())
        return nullptr;
    misses_.inc();
    entries_.push_back(Entry{gref, std::move(page.value()), ++clock_});
    if (entries_.size() * 2 > index_.size())
        reindex(std::max<std::size_t>(16, index_.size() * 2));
    else
        index_[probe(gref)] = Slot{gref, u32(entries_.size())};
    evictIfNeeded();
    // The new entry is the most recent, so eviction kept it; erase()
    // may have moved it into a victim's place.
    return &entries_[index_[probe(gref)].pos - 1].page;
}

void
GrantMapCache::evictIfNeeded()
{
    // At least one: the mapping map() just made is never its own victim.
    std::size_t cap = std::max<std::size_t>(1, sim::tuning().backendMapCacheCap);
    while (entries_.size() > cap) {
        std::size_t victim = 0;
        for (std::size_t e = 1; e < entries_.size(); e++)
            if (entries_[e].used < entries_[victim].used)
                victim = e;
        dom_.hypervisor().grantUnmap(dom_, *frontend_,
                                     entries_[victim].gref);
        erase(victim);
        evictions_.inc();
    }
}

void
GrantMapCache::unmapAll()
{
    if (frontend_)
        for (const Entry &e : entries_)
            dom_.hypervisor().grantUnmap(dom_, *frontend_, e.gref);
    entries_.clear();
    index_.clear();
}

} // namespace mirage::xen
