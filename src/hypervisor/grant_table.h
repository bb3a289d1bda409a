/**
 * @file
 * Grant tables (paper §3.4.1): a domain shares a page with a specific
 * peer by entering it in its grant table; the peer maps the grant —
 * checked and charged by the hypervisor — and both then touch the same
 * underlying Buffer, giving genuine zero-copy inter-domain I/O.
 */

#ifndef MIRAGE_HYPERVISOR_GRANT_TABLE_H
#define MIRAGE_HYPERVISOR_GRANT_TABLE_H

#include <unordered_map>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"
#include "base/types.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::trace {
class Counter;
} // namespace mirage::trace

namespace mirage::sim {
class Engine;
} // namespace mirage::sim

namespace mirage::xen {

using DomId = u32;
using GrantRef = u32;

class GrantTable
{
  public:
    /**
     * A grant's place in the table's flat storage. A long-lived holder
     * (the grant pool) takes one when it issues the grant, so reading
     * the grant's map count on a hot path is an index, not a ref
     * lookup. A handle whose grant has ended reads as unmapped.
     */
    struct Handle
    {
        u32 slot = 0;
        GrantRef ref = 0; //!< 0: no grant
    };

    explicit GrantTable(DomId owner) : owner_(owner) {}

    /**
     * Grant @p peer access to @p page.
     * @param readonly when true the peer may only read.
     * @return the grant reference to pass over a ring.
     */
    GrantRef grantAccess(DomId peer, Cstruct page, bool readonly);

    /**
     * Revoke a grant. Fails while the peer still has it mapped —
     * exactly the resource-leak hazard the paper's combinators guard
     * (the `with_grant` wrapper in src/drivers frees on all paths).
     */
    Status endAccess(GrantRef ref);

    /** Hypervisor-side validation when @p peer maps @p ref. */
    Result<Cstruct> mapFor(DomId peer, GrantRef ref, bool write);

    /** Peer finished with the mapping. */
    Status unmapFor(DomId peer, GrantRef ref);

    /** Number of currently active (not ended) grants. */
    std::size_t activeGrants() const { return index_.size(); }

    /**
     * Times @p ref is currently mapped by its peer (0 when unknown).
     * The grant pool uses this to tell a free pooled page (only the
     * pool, the table entry and the peer's cached map reference it)
     * from one still borrowed by in-flight I/O.
     */
    u32 mapCountOf(GrantRef ref) const;

    /** The handle of active grant @p ref (an empty one when unknown). */
    Handle handleOf(GrantRef ref) const;

    /** mapCountOf() the grant @p h names, without the ref lookup. */
    u32
    mapCount(Handle h) const
    {
        if (h.slot >= slots_.size())
            return 0;
        const Entry &e = slots_[h.slot];
        return e.ref == h.ref ? e.mapCount : 0;
    }

    /**
     * Drop every entry, releasing the page views they hold. Called at
     * domain teardown (after the checker's leak audit): entries keep
     * guest pages alive, and their deleters live in the guest, so they
     * must not outlive it.
     */
    void releaseAll();

    /**
     * Bind the engine whose checker (if any, and enabled) audits this
     * table, and whose registry counts its operations in `gnttab.ops`.
     * The checker is resolved on every operation, so one attached to
     * the engine after domain construction is still honoured.
     */
    void bindEngine(const sim::Engine *engine);

  private:
    check::Checker *checker() const;

    struct Entry
    {
        GrantRef ref = 0; //!< 0 marks a free slot
        DomId peer = 0;
        Cstruct page;
        bool readonly = false;
        u32 mapCount = 0;
    };

    /** The active entry for @p ref, or nullptr. */
    Entry *find(GrantRef ref);

    DomId owner_;
    GrantRef next_ref_ = 1;
    const sim::Engine *engine_ = nullptr;
    //! Entries in stable slots; an ended grant's slot is reused.
    std::vector<Entry> slots_;
    std::vector<u32> free_slots_;
    //! Active ref → its slot.
    std::unordered_map<GrantRef, u32> index_;
    //! `gnttab.ops`: one tick per grantAccess, endAccess, map or unmap
    //! in any table; the datapath benches compare it per packet.
    trace::Counter *c_ops_ = nullptr;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_GRANT_TABLE_H
