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
 *
 * Every persistent tx fragment and rx fill asks the cache, so a hit is
 * kept to one index probe and one entry: entries sit in one contiguous
 * vector, found through an open-addressed gref index sized to the
 * entries (not to the cap), and recency is a stamp rather than a list
 * position. Only an eviction walks the entries, for the oldest stamp.
 */

#ifndef MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H
#define MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H

#include <string>
#include <vector>

#include "base/cstruct.h"
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
     * Hits hand back the cached page view without touching the
     * hypervisor; misses pay the map hypercall and may evict the
     * least-recently-used idle mapping to stay within the cap.
     * @return the cached mapping, borrowed: the cache keeps it alive
     *         until the next map() or unmapAll(), so a caller that
     *         keeps the page takes its own view (sub()). Null when the
     *         cache is unbound or the map hypercall fails.
     */
    Cstruct *map(GrantRef gref);

    /** Unmap everything (disconnect / frontend teardown). */
    void unmapAll();

    std::size_t size() const { return entries_.size(); }
    u64 hits() const { return hits_.value(); }
    u64 misses() const { return misses_.value(); }
    u64 evictions() const { return evictions_.value(); }

  private:
    struct Entry
    {
        GrantRef gref;
        Cstruct page;
        u64 used; //!< stamp of the last map(): least is least recent
    };

    /** An index slot: the gref and its entry's position + 1 (0 when
     *  the slot is empty), so a probe reads no entry. */
    struct Slot
    {
        GrantRef gref = 0;
        u32 pos = 0;
    };

    /** Slot in index_ holding @p gref, or the empty slot ending its
     *  probe run. */
    std::size_t probe(GrantRef gref) const;
    /** Rebuild index_ with @p slots slots (a power of two). */
    void reindex(std::size_t slots);
    /** Drop entries_[at], keeping index_ and the vector dense. */
    void erase(std::size_t at);
    void evictIfNeeded();

    Domain &dom_;
    Domain *frontend_ = nullptr;
    std::vector<Entry> entries_;
    //! Linear-probing gref index, kept at least twice the entry count.
    std::vector<Slot> index_;
    u64 clock_ = 0; //!< last stamp handed out
    // Each feeds `<prefix>.pmap.{hits,misses,evictions}`.
    trace::Counter hits_;
    trace::Counter misses_;
    trace::Counter evictions_;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_GRANT_MAP_CACHE_H
