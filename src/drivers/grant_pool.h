/**
 * @file
 * GrantPool — the frontend half of the persistent-grant protocol.
 *
 * Per-operation grant churn (grantAccess before every tx fragment, rx
 * post and block request; endAccess on every completion) is the tax the
 * paper's shared-ring story still pays in this reproduction. The pool
 * amortizes it two ways:
 *
 *  - Tier A, pooled pages: the pool owns whole I/O pages with
 *    long-lived writable grants and recycles (page, gref) pairs across
 *    tx frames, rx posts and blkif requests. A page is free again when
 *    nothing outside the pool, the grant-table entry and the backend's
 *    cached map references its buffer — the same refcount the I/O page
 *    pool uses, observed lazily.
 *
 *  - Tier B, registered buffers: long-lived application buffers (an
 *    iperf send chunk, fio's recycled read buffers) are granted whole,
 *    once; requests then carry (gref, offset) into the region. An LRU
 *    bound caps the registry; idle entries are revoked on eviction.
 *
 * Wire slots carry a `persistent` flag so the backend caches the
 * mapping (GrantMapCache) instead of unmapping per operation. The pool
 * drains at domain shutdown *after* the backend disconnects (LIFO
 * hooks), so the PR 2 teardown audits still pass.
 */

#ifndef MIRAGE_DRIVERS_GRANT_POOL_H
#define MIRAGE_DRIVERS_GRANT_POOL_H

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"
#include "hypervisor/grant_table.h"
#include "pvboot/pvboot.h"
#include "trace/metrics.h"

namespace mirage::drivers {

class GrantPool
{
  public:
    /** What a wire slot needs to name a region of a persistent grant. */
    struct Region
    {
        xen::GrantRef gref = 0;
        std::size_t offset = 0;  //!< view's offset inside the grant
        bool persistent = false; //!< backend must not unmap
    };

    /**
     * Binds to @p boot's domain and I/O pages; grants are issued to
     * @p backend. Registers a drain() shutdown hook — construct the
     * pool *before* backend.connect() so LIFO ordering unmaps the
     * backend's cached maps first.
     */
    GrantPool(pvboot::PVBoot &boot, xen::DomId backend);
    ~GrantPool();

    GrantPool(const GrantPool &) = delete;
    GrantPool &operator=(const GrantPool &) = delete;

    /**
     * A free pooled page with a live persistent grant (tier A). Grows
     * the pool up to tuning().frontendPoolPages, then fails Exhausted —
     * callers fall back to one-shot grants of fresh I/O pages.
     *
     * The returned view (and every sub-view sliced from it) rides a
     * lease: when the last borrower view drops, the recycle listeners
     * fire — the pool's analogue of IoPagePool's recycle event, needed
     * because pooled pages never return to the I/O page pool itself.
     */
    Result<Cstruct> acquirePage();

    /** A leased pooled page and the grant that names it. */
    struct Granted
    {
        Cstruct page;
        xen::GrantRef gref = 0;
    };

    /**
     * acquirePage() for a caller that names the page on a wire slot at
     * once (an rx post): also returns the page's grant, charged and
     * counted as regionFor() on the page would be, without its lookup.
     */
    Result<Granted> acquireGranted();

    /**
     * Subscribe to pooled-page returns (a leased page's last borrower
     * view dropped, so acquirePage can hand it out again). Fired from a
     * view destructor — listeners must defer real work to the engine.
     * A listener may remove listeners but must not add one.
     * @return a token for removeRecycleListener.
     */
    u64 addRecycleListener(std::function<void()> fn);

    /** Drop a listener. Safe for tokens already removed. */
    void removeRecycleListener(u64 token);

    /**
     * The persistent grant region covering @p view (tier B, also
     * resolves tier-A pages handed out earlier). Registers the view's
     * whole buffer on first sight. Returns persistent=false when the
     * buffer cannot be registered (registry full of busy entries).
     */
    Region regionFor(const Cstruct &view);

    /**
     * Revoke every idle grant. Runs from the domain shutdown hook;
     * mapped entries are skipped (their backend disconnects first in
     * LIFO order, so by the time the pool's hook runs nothing should
     * still be mapped).
     */
    void drain();

    u64 issued() const { return issued_.value(); }
    u64 reused() const { return reused_.value(); }
    std::size_t pooledPages() const { return pages_.size(); }
    /** Free tier-A pages right now (lazy refcount scan). */
    std::size_t freePages() const;

    /**
     * Whether the pooled page backed by @p buf is currently free (no
     * borrower views). True for buffers the pool does not own — they
     * carry no lease to leak. Used by the tx chain-abort invariant.
     */
    bool bufferIsFree(const Buffer *buf) const;

  private:
    struct PooledPage
    {
        Cstruct page;
        //! The page's grant, taken at issue: pageFree() reads its map
        //! count through it instead of looking the ref up.
        xen::GrantTable::Handle grant;
        //! A lease is live. Its keep reference makes pageFree() false,
        //! so the free scan skips the page without asking the grant
        //! table.
        bool leased = false;
    };

    struct Registered
    {
        Cstruct whole; //!< keeps the buffer alive while registered
        xen::GrantRef gref;
    };

    struct Lease;

    bool pageFree(const PooledPage &p) const;
    /** Index of a free (or newly issued) page, charged as acquirePage
     *  documents; the caller leases it. */
    Result<std::size_t> acquireIndex();
    Cstruct leased(std::size_t at);
    void leaseDied(std::size_t at, const Buffer *buf);
    void evictRegistryIfNeeded();
    void chargeReuse();

    pvboot::PVBoot &boot_;
    xen::DomId backend_;
    std::vector<PooledPage> pages_;
    std::size_t scan_hint_ = 0; //!< round-robin start of the free scan
    //! buffer identity → index in pages_ (regionFor on tier-A pages)
    std::unordered_map<const Buffer *, std::size_t> page_index_;
    //! Registered buffers, coldest first: a hit rotates its entry to
    //! the back, eviction scans from the front.
    std::vector<Registered> lru_;
    //! buffer identity → its registered grant (regionFor hits)
    std::unordered_map<const Buffer *, xen::GrantRef> regions_;
    bool drained_ = false;
    trace::Counter issued_; //!< feeds `grant.issued`
    trace::Counter reused_; //!< feeds `grant.reused`
    u64 next_listener_ = 1;
    //! Token 0 marks an entry removed while firing, erased afterwards.
    std::vector<std::pair<u64, std::function<void()>>> listeners_;
    int firing_ = 0; //!< leaseDied() depth; listeners_ must not move
    //! Liveness token shared with the (unremovable) shutdown hook.
    std::weak_ptr<GrantPool *> alive_;
};

} // namespace mirage::drivers

#endif // MIRAGE_DRIVERS_GRANT_POOL_H
