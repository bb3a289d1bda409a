/**
 * @file
 * Netif — the type-safe Ethernet frontend driver (§3.4).
 *
 * Pure library code over the shared-ring primitives: a tx ring whose
 * requests carry grants of the frame pages, and an rx ring kept stocked
 * with empty I/O pages from the reserved pool. Received frames are
 * delivered to the stack as views of those pages — no copy between the
 * driver and the application (§3.4.1).
 */

#ifndef MIRAGE_DRIVERS_NETIF_H
#define MIRAGE_DRIVERS_NETIF_H

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "drivers/grant_pool.h"
#include "hypervisor/event_channel.h"
#include "hypervisor/netback.h"
#include "hypervisor/ring.h"
#include "pvboot/pvboot.h"
#include "runtime/promise.h"
#include "sim/poller.h"
#include "trace/layer.h"

namespace mirage::drivers {

/**
 * Offload requests riding a tx chain's first slot (the distilled
 * netif extra-info slot): segment the chain at gsoSize in the backend
 * and/or fill the blank TCP checksum there.
 */
struct TxOffload
{
    u16 gsoSize = 0;
    bool csumBlank = false;
};

class Netif
{
  public:
    /**
     * Bring up the interface: allocate and grant the ring pages, bind
     * two event channels and register with the backend — the xenstore
     * handshake, distilled.
     */
    Netif(pvboot::PVBoot &boot, xen::Netback &backend, xen::MacBytes mac);
    ~Netif();

    xen::MacBytes mac() const { return mac_; }
    xen::Domain &domain() { return boot_.domain(); }

    /**
     * Take a 4 kB I/O page to build a frame in — a recycled
     * persistent-grant pool page when one is free, else a fresh page
     * from the reserved pool. The page returns when every view of it
     * is dropped.
     */
    Result<Cstruct> allocTxPage();

    /**
     * Transmit @p frame (a view into an I/O page, offset preserved).
     * Resolves when the backend acknowledges the tx; the frame's grant
     * is released when the ack arrives.
     */
    rt::PromisePtr writeFrame(Cstruct frame);

    /**
     * Scatter-gather transmit (§3.5.1, Fig 4): the fragments — header
     * page first, then payload sub-views — are pushed onto the ring as
     * one chained packet, so the stack never copies payload bytes.
     * @p offload is stamped into the chain's first slot (TSO segment
     * size / blank checksum) when the backend advertised the features.
     * Resolves when the final fragment is acknowledged.
     */
    rt::PromisePtr writeFrameV(const std::vector<Cstruct> &frags,
                               TxOffload offload = {});

    /** Handler for received frames (views of pool pages). */
    void onFrame(std::function<void(Cstruct)> handler);

    u64 txCompleted() const { return tx_completed_; }
    u64 rxDelivered() const { return rx_delivered_; }
    u64 txErrors() const { return tx_errors_; }
    u64 rxStalls() const { return rx_stalls_.value(); }
    std::size_t txQueueDepth() const { return tx_wait_queue_.size(); }
    GrantPool &grantPool() { return *pool_; }
    /** The ring poller (test visibility). */
    sim::Poller &poller() { return *poller_; }

    /** Frames queued behind a full ring before being refused. */
    static constexpr std::size_t txQueueLimit = 4096;

  private:
    /** Shared state of one (possibly scatter-gather) tx frame: the
     *  promise resolves — or, if any fragment failed, cancels — only
     *  when every fragment has been acknowledged. */
    struct TxFrame
    {
        rt::PromisePtr promise;
        std::size_t remaining = 0;
        bool failed = false;
        u64 flow = 0;
    };

    struct TxPending
    {
        std::shared_ptr<TxFrame> frame;
        xen::GrantRef gref = 0;
        Cstruct page;            //!< keeps the frame page alive until acked
        bool persistent = false; //!< gref belongs to the pool: no endAccess
    };

    struct RxPosted
    {
        Cstruct page;
        xen::GrantRef gref = 0;
        bool persistent = false;
    };

    /**
     * One ring's in-flight requests, indexed by the id each request
     * slot carries. A ring never has more than slotCount requests
     * outstanding, so the ids come from a free list over that many
     * entries, as netfront's do. Freed ids queue behind every other
     * free id, so a stale response names a free id for as long as it
     * can. A response naming a free or out-of-range id finds nothing.
     */
    template <typename T>
    class InFlight
    {
      public:
        static constexpr u32 capacity = xen::RingLayout::slotCount;

        InFlight()
        {
            for (u32 i = 0; i < capacity; i++)
                free_[i] = u8(i);
        }

        std::size_t room() const { return free_count_; }

        /** Store @p v under a free id (room() must be nonzero). */
        u16
        add(T v)
        {
            u8 id = free_[free_head_];
            free_head_ = (free_head_ + 1) % capacity;
            free_count_--;
            slots_[id] = std::move(v);
            used_[id] = true;
            return id;
        }

        /** Remove and return the entry @p id names; nullopt when the
         *  id is free or out of range. */
        std::optional<T>
        take(u16 id)
        {
            if (id >= capacity || !used_[id])
                return std::nullopt;
            std::optional<T> out(std::move(slots_[id]));
            slots_[id] = T{};
            used_[id] = false;
            free_[(free_head_ + free_count_) % capacity] = u8(id);
            free_count_++;
            return out;
        }

      private:
        std::array<T, capacity> slots_{};
        std::array<bool, capacity> used_{};
        std::array<u8, capacity> free_{}; //!< FIFO from free_head_
        u32 free_head_ = 0;
        u32 free_count_ = capacity;
    };
    static_assert(xen::RingLayout::slotCount <= 256, "ids are u8 here");

    struct QueuedTx
    {
        std::vector<Cstruct> frags;
        rt::PromisePtr promise;
        u64 flow = 0;
        TxOffload offload;
    };

    /** Tx slots a chain may claim now: ring space and free ids. */
    std::size_t txRoom() const
    {
        return std::min<std::size_t>(tx_ring_->freeRequests(),
                                     tx_pending_.room());
    }
    void postRxBuffers();
    void scheduleRxRepost();
    void onEvent();
    /** Would a poll's drain do anything? Pure (sim::Poller). */
    bool pollReady() const;
    bool drainTxResponses(bool park);
    bool drainRxResponses(bool park);
    void drainTxQueue();
    bool enqueueOnRing(const std::vector<Cstruct> &frags,
                       const rt::PromisePtr &p, u64 flow,
                       TxOffload offload,
                       xen::DoorbellBatch *batch = nullptr);
    void abortTx(const std::vector<Cstruct> &frags,
                 const rt::PromisePtr &p, u64 flow);

    pvboot::PVBoot &boot_;
    sim::Engine &engine_; //!< the domain's engine
    xen::MacBytes mac_;
    xen::DomId backend_domid_ = 0;
    xen::Port tx_port_;
    xen::Port rx_port_;
    Cstruct tx_ring_page_;
    Cstruct rx_ring_page_;
    // Held inline: every poll reads both rings' headers, and a separate
    // allocation would add a cache miss per read.
    std::optional<xen::FrontRing> tx_ring_;
    std::optional<xen::FrontRing> rx_ring_;
    std::unique_ptr<GrantPool> pool_;
    /** Parks both rings' rsp_event and drains on a timer while the
     *  device is busy, so backend pushes stop costing doorbells. */
    std::optional<sim::Poller> poller_;
    InFlight<TxPending> tx_pending_;
    InFlight<RxPosted> rx_posted_;
    std::deque<QueuedTx> tx_wait_queue_;
    std::function<void(Cstruct)> rx_handler_;
    u64 tx_completed_ = 0;
    u64 rx_delivered_ = 0;
    u64 tx_errors_ = 0;
    trace::Counter rx_stalls_; //!< feeds `netif.rx.stalls`
    trace::LayerTrace trace_; //!< the "<dom>/netif" track and netif_tx
    //! I/O page pool recycle subscription (rx restock after a stall).
    u64 recycle_listener_ = 0;
    //! Grant-pool recycle subscription (pooled pages bypass ioPages).
    u64 pool_recycle_listener_ = 0;
    bool rx_stalled_ = false;     //!< rx ring underfilled for want of pages
    bool repost_pending_ = false; //!< a deferred restock is scheduled
    sim::EventId repost_event_ = 0;
};

} // namespace mirage::drivers

#endif // MIRAGE_DRIVERS_NETIF_H
