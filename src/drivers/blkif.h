/**
 * @file
 * Blkif — the block frontend driver (§3.5.2): shares the Ring
 * abstraction with networking and uses the same I/O pages, so storage
 * and network I/O present one asynchronous API. All writes are direct —
 * the only built-in policy; caching belongs to library code above.
 */

#ifndef MIRAGE_DRIVERS_BLKIF_H
#define MIRAGE_DRIVERS_BLKIF_H

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "drivers/grant_pool.h"
#include "hypervisor/blkback.h"
#include "hypervisor/ring.h"
#include "pvboot/pvboot.h"
#include "runtime/promise.h"
#include "sim/poller.h"
#include "trace/layer.h"

namespace mirage::drivers {

class Blkif
{
  public:
    Blkif(pvboot::PVBoot &boot, xen::Blkback &backend);

    /** Device capacity. */
    u64 sizeSectors() const { return size_sectors_; }

    /**
     * Read @p count sectors starting at @p sector into @p page
     * (a 4 kB I/O page; count <= 8). @p done receives the outcome.
     * @return a promise resolved on success, cancelled on error.
     */
    rt::PromisePtr read(u64 sector, u32 count, Cstruct page);

    /** Write @p count sectors from @p page at @p sector. */
    rt::PromisePtr write(u64 sector, u32 count, Cstruct page);

    /**
     * An I/O page for data transfer: a persistently-granted pooled
     * page when the pool has one free, else a fresh I/O page.
     */
    Result<Cstruct> allocPage();

    u64 requestsCompleted() const { return completed_.value(); }
    u64 requestErrors() const { return errors_.value(); }

    /** The device's persistent-grant pool (test visibility). */
    GrantPool &grantPool() { return *pool_; }
    /** The ring poller (test visibility). */
    sim::Poller &poller() { return *poller_; }

  private:
    struct Pending
    {
        rt::PromisePtr promise;
        xen::GrantRef gref;
        Cstruct page;
        u8 op = 0;
        u32 count = 0;
        TimePoint submitted;
        u64 flow = 0; //!< request flow this I/O belongs to
    };

    /** Requests parked behind a full ring (driver request queue). */
    struct Queued
    {
        u8 op;
        u64 sector;
        u32 count;
        Cstruct page;
        rt::PromisePtr promise;
        u64 flow = 0;
    };

    static constexpr std::size_t waitQueueLimit = 4096;

    rt::PromisePtr submit(u8 op, u64 sector, u32 count, Cstruct page);
    bool enqueueOnRing(u8 op, u64 sector, u32 count, const Cstruct &page,
                       const rt::PromisePtr &p, u64 flow);
    void drainWaitQueue();
    void onEvent();
    /** Would a poll's drain do anything? Pure (sim::Poller). */
    bool pollReady() const;
    bool drainResponses(bool park);

    pvboot::PVBoot &boot_;
    xen::DomId backend_domid_;
    std::unique_ptr<GrantPool> pool_;
    u64 size_sectors_;
    xen::Port port_;
    Cstruct ring_page_;
    std::optional<xen::FrontRing> ring_; //!< inline: read every poll
    /** Parks rsp_event and drains completions on a timer while I/O is
     *  in flight, so backend pushes stop costing doorbells. */
    std::optional<sim::Poller> poller_;
    std::unordered_map<u64, Pending> pending_;
    std::deque<Queued> wait_queue_;
    u64 next_id_ = 0;
    trace::Counter completed_; //!< feeds `blk.completed`
    trace::Counter errors_;    //!< feeds `blk.errors`
    trace::LayerTrace trace_;  //!< the "<dom>/blkif" track and stage
};

} // namespace mirage::drivers

#endif // MIRAGE_DRIVERS_BLKIF_H
