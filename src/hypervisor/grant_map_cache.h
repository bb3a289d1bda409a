/**
 * @file
 * GrantMapCache — the backend half of the persistent-grant protocol.
 *
 * netback and blkback keep one cache per frontend: the first request
 * naming a persistent gref pays the map hypercall, every later request
 * reuses the cached mapping (charged only the cache-hit lookup), and
 * the mapping is dropped at disconnect() — or earlier by LRU eviction
 * when the cache exceeds its bound. Because the cache holds the map
 * until teardown, the frontend's GrantPool must drain *after* the
 * backend disconnects (shutdown hooks run LIFO; the pool registers
 * first), keeping the checker's revoke-while-mapped audit clean.
 */

#ifndef MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H
#define MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H

#include <list>
#include <string>
#include <unordered_map>

#include "base/cstruct.h"
#include "base/result.h"
#include "hypervisor/grant_table.h"
#include "trace/metrics.h"

namespace mirage::xen {

class Domain;

class GrantMapCache
{
  public:
    /**
     * @param mapper   the backend domain doing the mapping.
     * @param prefix   metric prefix, e.g. "netback" → `netback.pmap.*`.
     */
    GrantMapCache(Domain &mapper, const std::string &prefix);

    /** Set (or change) the frontend whose grants this cache maps. */
    void bind(Domain *frontend) { frontend_ = frontend; }

    /**
     * Map @p gref persistently (always readwrite — the pool issues its
     * grants writable so one page serves tx, rx and block traffic).
     * Hits return the cached page view without touching the
     * hypervisor; misses pay the map hypercall and may evict the
     * least-recently-used idle mapping to stay within the cap.
     */
    Result<Cstruct> map(GrantRef gref);

    /** Unmap everything (disconnect / frontend teardown). */
    void unmapAll();

    std::size_t size() const { return entries_.size(); }
    u64 hits() const { return hits_.value(); }
    u64 misses() const { return misses_.value(); }
    u64 evictions() const { return evictions_.value(); }

  private:
    struct Entry
    {
        Cstruct page;
        std::list<GrantRef>::iterator lru_it;
    };

    void evictIfNeeded();

    Domain &dom_;
    Domain *frontend_ = nullptr;
    std::unordered_map<GrantRef, Entry> entries_;
    std::list<GrantRef> lru_; //!< front = most recently used
    // Each feeds `<prefix>.pmap.{hits,misses,evictions}`.
    trace::Counter hits_;
    trace::Counter misses_;
    trace::Counter evictions_;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H
