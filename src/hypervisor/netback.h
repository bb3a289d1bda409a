/**
 * @file
 * The network backend: a software Ethernet bridge plus per-frontend
 * vifs speaking the netif ring protocol (§3.4).
 *
 * Frontends grant their ring pages and frame pages; the backend maps
 * grants per request (charged), copies tx frames out before responding
 * (so the frontend can recycle its pages), switches frames by learned
 * MAC, and fills posted rx buffers on delivery — the same two-copy
 * datapath as Xen netback/gnttab_copy, which is exactly the overhead the
 * unikernel's internal zero-copy path avoids (Fig 4).
 */

#ifndef MIRAGE_HYPERVISOR_NETBACK_H
#define MIRAGE_HYPERVISOR_NETBACK_H

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/cstruct.h"
#include "hypervisor/domain.h"
#include "hypervisor/event_channel.h"
#include "hypervisor/grant_map_cache.h"
#include "hypervisor/ring.h"
#include "sim/cpu.h"
#include "sim/poller.h"
#include "trace/layer.h"

namespace mirage::xen {

using MacBytes = std::array<u8, 6>;

/** Wire layout of netif ring slots, shared with drivers/netif. */
struct NetifWire
{
    // tx request
    static constexpr std::size_t txreqId = 0;     // le16
    static constexpr std::size_t txreqGrant = 4;  // le32
    static constexpr std::size_t txreqOffset = 8; // le16
    static constexpr std::size_t txreqLen = 10;   // le16
    static constexpr std::size_t txreqFlags = 12; // le16
    /**
     * Low 32 bits of the request-flow id this fragment belongs to
     * (0 = untracked) — carried in the slot so the backend can
     * attribute its copy/switch work to the originating flow.
     */
    static constexpr std::size_t txreqFlow = 16; // le32
    /**
     * TSO: the MSS the backend must segment this chain against
     * (0 = no segmentation). Carried in the chain's *first* slot —
     * the distilled equivalent of netif's XEN_NETIF_EXTRA_TYPE_GSO
     * extra-info slot.
     */
    static constexpr std::size_t txreqGsoSize = 20; // le16
    /** More fragments of the same packet follow (scatter-gather tx). */
    static constexpr u16 txflagMoreData = 0x1;
    /**
     * The grant is persistent: the backend caches the mapping instead
     * of unmapping after this request, and txreqOffset locates the
     * fragment inside the (whole-buffer) grant.
     */
    static constexpr u16 txflagPersistent = 0x2;
    /**
     * The TCP checksum field is blank (checksum offload): the backend
     * must fill it before the frame touches the wire. Set on the
     * chain's first slot, like NETTXF_csum_blank.
     */
    static constexpr u16 txflagCsumBlank = 0x4;
    // tx response
    static constexpr std::size_t txrspId = 0;     // le16
    static constexpr std::size_t txrspStatus = 2; // u8: 0 ok
    // rx request (posted empty buffer)
    static constexpr std::size_t rxreqId = 0;     // le16
    static constexpr std::size_t rxreqGrant = 4;  // le32
    static constexpr std::size_t rxreqFlags = 8;  // le16
    /** Posted buffer rides a persistent grant (see txflagPersistent). */
    static constexpr u16 rxflagPersistent = 0x1;
    // rx response
    static constexpr std::size_t rxrspId = 0;     // le16
    static constexpr std::size_t rxrspLen = 2;    // le16
    static constexpr std::size_t rxrspStatus = 4; // u8: 0 ok
    /**
     * Low 32 bits of the request-flow id this frame belongs to (0 =
     * untracked), the rx mirror of txreqFlow: the backend stamps the
     * ambient flow of the delivery so the frontend can restore it per
     * drained slot — the poll timer that drains the ring runs under no
     * flow of its own.
     */
    static constexpr std::size_t rxrspFlow = 8; // le32

    static constexpr u8 statusOk = 0;
    static constexpr u8 statusError = 1;
};

/** Anything that can hang off the bridge (vifs, raw test ports). */
class BridgeEndpoint
{
  public:
    virtual ~BridgeEndpoint() = default;
    virtual MacBytes mac() const = 0;
    /** A frame switched to this endpoint. The view is owned (stable). */
    virtual void frameFromBridge(const Cstruct &frame) = 0;
};

/** A learning Ethernet switch with a latency/bandwidth fabric model. */
class Bridge
{
  public:
    Bridge(sim::Engine &engine, std::string name);

    void attach(BridgeEndpoint *ep);
    void detach(BridgeEndpoint *ep);

    /**
     * Switch @p frame from @p from. The frame buffer must be owned by
     * the caller's transfer (not aliasing a reusable guest page).
     */
    void send(BridgeEndpoint *from, Cstruct frame);

    u64 framesSwitched() const { return switched_; }
    u64 framesDropped() const { return dropped_; }

    /**
     * Fault injection: frames for which @p fn returns true are dropped
     * in the fabric. The frame is passed in so tests can target a
     * specific kind of traffic (e.g. the Nth data segment) regardless
     * of how control frames interleave. Used to exercise
     * retransmission machinery.
     */
    void
    setDropFn(std::function<bool(const Cstruct &)> fn)
    {
        drop_fn_ = std::move(fn);
    }

  private:
    /**
     * Ingress: learns the source MAC, serialises the wire transfer on
     * the shared fabric, then routes.
     */
    void arrive(BridgeEndpoint *from, Cstruct frame);
    /** Egress: deliver @p frame to @p ep at @p when. */
    void dispatch(BridgeEndpoint *ep, const Cstruct &frame,
                  TimePoint when);

    sim::Engine &engine_;
    sim::Cpu fabric_;
    std::vector<BridgeEndpoint *> ports_;
    std::map<MacBytes, BridgeEndpoint *> learned_;
    std::function<bool(const Cstruct &)> drop_fn_;
    u64 switched_ = 0;
    u64 dropped_ = 0;
};

/** Frontend-supplied handshake data (the xenstore exchange, distilled). */
struct NetConnectInfo
{
    Domain *frontend = nullptr;
    GrantRef txRingGrant = 0;
    GrantRef rxRingGrant = 0;
    Port backendTxPort = 0; //!< backend-side ports of the two channels
    Port backendRxPort = 0;
    MacBytes mac{};
    /** Frontend advertises TSO chains (feature-gso in xenstore). */
    bool featureGso = false;
    /** Frontend advertises blank-checksum tx (feature-csum-offload). */
    bool featureCsumOffload = false;
};

class Netback
{
  public:
    Netback(Domain &backend_dom, Bridge &bridge);
    ~Netback();

    /** One backend vif bound to one frontend. */
    class Vif : public BridgeEndpoint
    {
      public:
        Vif(Netback &owner, const NetConnectInfo &info);

        MacBytes mac() const override { return mac_; }
        void frameFromBridge(const Cstruct &frame) override;

        /**
         * Detach from the bridge and unmap both ring grants. Runs
         * automatically (shutdown hook) when the frontend tears down.
         * Idempotent; traffic after this is dropped.
         */
        void disconnect();

        u64 framesDropped() const { return dropped_; }

        /** Persistent-grant mapping cache (test visibility). */
        const GrantMapCache &mapCache() const { return pmap_; }

        /** The tx ring poller, while connected (test visibility). */
        sim::Poller &txPoller() { return *tx_poller_; }

        /** The frontend this vif serves. */
        const Domain &frontendDomain() const { return frontend_; }

        /**
         * Fault injection: fail the next @p n tx fragment maps, as if
         * the frontend revoked the grants mid-flight. Exercises the
         * chain-abort path.
         */
        void injectTxMapFailures(u32 n) { inject_tx_map_failures_ = n; }

      private:
        void onTxEvent();
        bool drainTx(bool park);
        void onRxEvent();
        void deliverFrame(const Cstruct &frame);
        /** Coalesce/segment the completed pending chain and switch the
         *  resulting frame(s) onto the bridge. */
        void forwardChain();

        /** Frames parked while the frontend owes rx buffers. */
        static constexpr std::size_t rxBacklogLimit = 256;

        Netback &owner_;
        Domain &frontend_;
        MacBytes mac_;
        Port tx_port_;
        Port rx_port_;
        GrantRef tx_ring_grant_;
        GrantRef rx_ring_grant_;
        // Inline (not heap-allocated): polled on every tx drain.
        std::optional<BackRing> tx_ring_;
        std::optional<BackRing> rx_ring_;
        /** gref → page cache for persistent grants (both directions —
         *  the frontend pool issues writable grants, so one mapping
         *  serves tx reads and rx fills alike). */
        GrantMapCache pmap_;
        /** Deferred rx-fill doorbell (interrupt mitigation). */
        std::unique_ptr<LazyDoorbell> rx_bell_;
        /** Parks the tx ring's req_event and drains on a timer while
         *  the frontend is transmitting (frontend pushes then stop
         *  ringing the doorbell). */
        std::optional<sim::Poller> tx_poller_;
        struct PostedRx
        {
            u16 id;
            GrantRef gref;
            bool persistent;
        };
        /** rx buffers posted by the frontend, FIFO. */
        std::deque<PostedRx> posted_rx_;
        /** Switched frames waiting for rx buffers, FIFO (real netback's
         *  rx queue): delivered as the frontend reposts, dropped only
         *  past rxBacklogLimit. */
        std::deque<Cstruct> rx_backlog_;
        /** Fragments of a partially-received scatter-gather packet. */
        std::vector<Cstruct> pending_frags_;
        std::size_t pending_bytes_ = 0;
        /** A fragment of the current tx chain failed: error out the
         *  rest of the chain instead of treating the remaining
         *  fragments as the start of a new packet. */
        bool discard_chain_ = false;
        u32 inject_tx_map_failures_ = 0;
        /** TSO segment size from the chain's first slot (0 = none). */
        u16 pending_gso_ = 0;
        /** Chain's first slot asked for a backend checksum fill. */
        bool pending_csum_blank_ = false;
        /** Features the frontend advertised at connect. */
        bool feature_gso_ = false;
        bool feature_csum_ = false;
        /** Flow id stamped in the packet's first fragment slot. */
        u64 pending_flow_ = 0;
        /** dom0 vCPU backlog when the packet's stage opened. */
        TimePoint pending_busy0_;
        u64 dropped_ = 0;
        trace::LayerTrace trace_; //!< "<dom>/netback" and netback_tx
        //! The frontend's ring marks (null without telemetry).
        trace::RingMark *tx_mark_ = nullptr;
        trace::RingMark *rx_mark_ = nullptr;
    };

    Vif &connect(const NetConnectInfo &info);

    /** The vif serving @p frontend, or nullptr (fault injection). */
    Vif *vifFor(const Domain &frontend);

    Domain &backendDomain() { return dom_; }
    Bridge &bridge() { return bridge_; }

  private:
    Domain &dom_;
    Bridge &bridge_;
    std::vector<std::unique_ptr<Vif>> vifs_;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_NETBACK_H
