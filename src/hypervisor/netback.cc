#include "hypervisor/netback.h"

#include <algorithm>

#include "base/checksum.h"
#include "base/logging.h"
#include "check/check.h"
#include "hypervisor/xen.h"
#include "hypervisor/ring.h"
#include "sim/cost_model.h"
#include "sim/shard.h"
#include "sim/tuning.h"
#include "trace/flow.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::xen {

namespace {

/** The profiler scope of a tx drain (a poll train interns it). */
constexpr const char *kTxDrainScope = "hyp/netback/tx";

/** Copy bytes [offset, offset+len) of a fragment chain into @p dst at
 *  @p dst_off (the backend's copy-out, possibly a slice of it). */
void
copyFromChain(Cstruct &dst, std::size_t dst_off,
              const std::vector<Cstruct> &frags, std::size_t offset,
              std::size_t len)
{
    std::size_t skipped = 0;
    for (const Cstruct &f : frags) {
        if (len == 0)
            break;
        if (skipped + f.length() <= offset) {
            skipped += f.length();
            continue;
        }
        std::size_t start = offset > skipped ? offset - skipped : 0;
        std::size_t take = std::min(f.length() - start, len);
        dst.blitFrom(f, start, dst_off, take);
        dst_off += take;
        len -= take;
        skipped += f.length();
        offset = skipped; // later fragments contribute from their head
    }
}

/**
 * TCP checksum over an assembled Ethernet/IPv4/TCP frame, pseudo-
 * header included. Local to netback: dom0 parses wire bytes, it does
 * not link the guests' net library.
 */
u16
tcpWireChecksum(const Cstruct &frame, std::size_t eth_hdr,
                std::size_t ihl)
{
    std::size_t tcp_off = eth_hdr + ihl;
    std::size_t tcp_len = frame.length() - tcp_off;
    ChecksumAccumulator acc;
    u32 src = frame.getBe32(eth_hdr + 12);
    u32 dst = frame.getBe32(eth_hdr + 16);
    acc.addWord(u16(src >> 16));
    acc.addWord(u16(src & 0xffff));
    acc.addWord(u16(dst >> 16));
    acc.addWord(u16(dst & 0xffff));
    acc.addWord(6); // IPPROTO_TCP
    acc.addWord(u16(tcp_len));
    acc.add(frame.sub(tcp_off, tcp_len));
    return acc.finish();
}

void
fillTcpWireChecksum(Cstruct &frame, std::size_t eth_hdr,
                    std::size_t ihl)
{
    frame.setBe16(eth_hdr + ihl + 16, 0);
    frame.setBe16(eth_hdr + ihl + 16,
                  tcpWireChecksum(frame, eth_hdr, ihl));
}

} // namespace

// ---- Bridge ---------------------------------------------------------------

Bridge::Bridge(sim::Engine &engine, std::string name)
    : engine_(engine), fabric_(engine, name + "/fabric")
{
}

void
Bridge::attach(BridgeEndpoint *ep)
{
    // Ports stay sorted by MAC: vifs attach from whichever shard runs
    // their guest's entry first, and the flood in arrive() walks
    // ports_, so arrival order would leak into the schedule.
    std::lock_guard<std::mutex> lk(mu_);
    auto at = std::upper_bound(ports_.begin(), ports_.end(), ep->mac(),
                               [](const MacBytes &mac, BridgeEndpoint *p) {
                                   return mac < p->mac();
                               });
    ports_.insert(at, ep);
}

void
Bridge::detach(BridgeEndpoint *ep)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(ports_, ep);
    for (auto it = learned_.begin(); it != learned_.end();) {
        if (it->second == ep)
            it = learned_.erase(it);
        else
            ++it;
    }
}

void
Bridge::send(BridgeEndpoint *from, Cstruct frame)
{
    if (frame.length() < 12)
        return; // runt frame: not even two MAC addresses
    // Ingress hop onto the bridge's home shard. The first `interrupt`
    // slice of bridgeLatency pays for the hop (== the ShardSet
    // lookahead, so the merge is always conservative); arrive() adds
    // the remainder after the fabric transfer, keeping the idle-path
    // end-to-end latency exactly transfer + bridgeLatency.
    sim::crossPost(engine_, sim::costs().interrupt,
                   [this, from, frame = std::move(frame)]() mutable {
                       arrive(from, std::move(frame));
                   });
}

void
Bridge::arrive(BridgeEndpoint *from, Cstruct frame)
{
    MacBytes src;
    for (int i = 0; i < 6; i++)
        src[std::size_t(i)] = frame.getU8(std::size_t(6 + i));

    const auto &c = sim::costs();
    // Only the wire transfer serialises on the fabric; switch latency
    // is a pipelined delay, so the bridge does not become the
    // bottleneck of host-CPU-bound comparisons (Fig 8).
    Duration transfer(i64(c.bridgeNsPerByte * double(frame.length())));
    TimePoint done =
        fabric_.finishAt(transfer, "bridge.xfer", trace::Cat::Hypervisor);
    TimePoint when = done + (c.bridgeLatency - c.interrupt);

    if (drop_fn_ && drop_fn_(frame)) {
        dropped_++;
        return;
    }
    MacBytes dst;
    for (int i = 0; i < 6; i++)
        dst[std::size_t(i)] = frame.getU8(std::size_t(i));
    bool broadcast = std::all_of(dst.begin(), dst.end(),
                                 [](u8 b) { return b == 0xff; });

    std::lock_guard<std::mutex> lk(mu_);
    learned_[src] = from;
    if (!broadcast) {
        auto it = learned_.find(dst);
        if (it != learned_.end()) {
            if (it->second != from) {
                switched_++;
                dispatch(it->second, frame, when);
            }
            return;
        }
    }
    // Broadcast or unknown destination: flood.
    for (BridgeEndpoint *ep : ports_)
        if (ep != from)
            dispatch(ep, frame, when);
}

void
Bridge::dispatch(BridgeEndpoint *ep, const Cstruct &frame, TimePoint when)
{
    sim::Engine *home = ep->homeEngine();
    sim::crossPostAt(home ? *home : engine_, when,
                     [ep, frame] { ep->frameFromBridge(frame); });
}

// ---- Netback ----------------------------------------------------------------

Netback::Netback(Domain &backend_dom, Bridge &bridge)
    : dom_(backend_dom), bridge_(bridge)
{
}

Netback::~Netback() = default;

Netback::Vif &
Netback::connect(const NetConnectInfo &info)
{
    vifs_.push_back(std::make_unique<Vif>(*this, info));
    bridge_.attach(vifs_.back().get());
    return *vifs_.back();
}

Netback::Vif *
Netback::vifFor(const Domain &frontend)
{
    for (auto &vif : vifs_)
        if (&vif->frontendDomain() == &frontend)
            return vif.get();
    return nullptr;
}

Netback::Vif::Vif(Netback &owner, const NetConnectInfo &info)
    : owner_(owner), frontend_(*info.frontend), mac_(info.mac),
      tx_port_(info.backendTxPort), rx_port_(info.backendRxPort),
      tx_ring_grant_(info.txRingGrant), rx_ring_grant_(info.rxRingGrant),
      pmap_(owner.dom_, "netback"), feature_gso_(info.featureGso),
      feature_csum_(info.featureCsumOffload),
      trace_(owner.dom_.engine().telemetry(), owner.dom_.name(),
             "/netback")
{
    Hypervisor &hv = owner_.dom_.hypervisor();
    pmap_.bind(&frontend_);
    if (trace::DomainStats *s = frontend_.stats()) {
        tx_mark_ = &s->ring("netback.tx");
        rx_mark_ = &s->ring("netback.rx");
    }
    rx_bell_ = std::make_unique<LazyDoorbell>(hv.events(), owner_.dom_,
                                              rx_port_);
    tx_poller_.emplace(
        owner_.dom_.engine(), kTxDrainScope,
        [this] { return tx_ring_ && tx_ring_->unconsumedRequests() > 0; },
        [this] { return tx_ring_ ? drainTx(true) : false; },
        [this] {
            return tx_ring_ && tx_ring_->finalCheckForRequests();
        });
    auto tx_page =
        hv.grantMap(owner_.dom_, frontend_, info.txRingGrant, true);
    auto rx_page =
        hv.grantMap(owner_.dom_, frontend_, info.rxRingGrant, true);
    if (!tx_page.ok() || !rx_page.ok())
        fatal("netback: cannot map ring grants for %s",
              frontend_.name().c_str());
    tx_ring_.emplace(tx_page.value());
    rx_ring_.emplace(rx_page.value());
    tx_ring_->attachMetrics(owner_.dom_.engine().metrics(), "ring.netback.tx");
    rx_ring_->attachMetrics(owner_.dom_.engine().metrics(), "ring.netback.rx");
    tx_ring_->attachChecker(owner_.dom_.engine().checker(), "ring.netback.tx");
    rx_ring_->attachChecker(owner_.dom_.engine().checker(), "ring.netback.rx");

    owner_.dom_.setPortHandler(tx_port_, [this] {
        owner_.dom_.clearPending(tx_port_);
        onTxEvent();
    });
    owner_.dom_.setPortHandler(rx_port_, [this] {
        owner_.dom_.clearPending(rx_port_);
        onRxEvent();
    });
    frontend_.addShutdownHook([this] { disconnect(); });
}

void
Netback::Vif::disconnect()
{
    if (!tx_ring_)
        return;
    Hypervisor &hv = owner_.dom_.hypervisor();
    owner_.bridge_.detach(this);
    rx_bell_.reset(); // drop any pending doorbell: the port is closing
    tx_poller_.reset();
    pmap_.unmapAll();
    tx_ring_.reset();
    rx_ring_.reset();
    hv.grantUnmap(owner_.dom_, frontend_, tx_ring_grant_);
    hv.grantUnmap(owner_.dom_, frontend_, rx_ring_grant_);
}

void
Netback::Vif::onTxEvent()
{
    if (!tx_ring_)
        return; // event raced with disconnect
    // While the frontend transmits, park req_event and drain on the
    // poller's cadence instead of per-push doorbells.
    bool park = sim::tuning().doorbellBatching;
    drainTx(park);
    if (park)
        tx_poller_->kick();
}

bool
Netback::Vif::drainTx(bool park)
{
    Hypervisor &hv = owner_.dom_.hypervisor();
    const auto &c = sim::costs();
    trace::ProfScope pscope(owner_.dom_.engine().profiler(), kTxDrainScope);
    if (tx_mark_)
        frontend_.stats()->noteRing(*tx_mark_,
                                    tx_ring_->unconsumedRequests(),
                                    RingLayout::slotCount);
    bool any = false;
    do {
        while (tx_ring_->unconsumedRequests() > 0) {
            CstructView req = tx_ring_->takeRequest().value();
            u16 id = req.getLe16(NetifWire::txreqId);
            GrantRef gref = req.getLe32(NetifWire::txreqGrant);
            u16 offset = req.getLe16(NetifWire::txreqOffset);
            u16 len = req.getLe16(NetifWire::txreqLen);
            u16 flags = req.getLe16(NetifWire::txreqFlags);
            bool more = (flags & NetifWire::txflagMoreData) != 0;
            bool persistent =
                (flags & NetifWire::txflagPersistent) != 0;

            u8 status = NetifWire::statusOk;
            if (discard_chain_) {
                // An earlier fragment of this chain failed: the rest
                // of the chain is garbage. Error each fragment without
                // touching its grant.
                status = NetifWire::statusError;
            } else {
                // First fragment of a packet: pick up the flow and the
                // offload metadata stamped in the slot and open the
                // backend stage for the packet.
                if (pending_frags_.empty()) {
                    pending_gso_ = req.getLe16(NetifWire::txreqGsoSize);
                    pending_csum_blank_ =
                        (flags & NetifWire::txflagCsumBlank) != 0;
                    pending_flow_ = req.getLe32(NetifWire::txreqFlow);
                    if (pending_flow_) {
                        trace_.stageBegin(pending_flow_, "netback_tx",
                                          owner_.dom_.engine().now());
                        // Baseline of dom0's CPU backlog, so the stage
                        // charges only this packet's own modeled work.
                        pending_busy0_ = owner_.dom_.vcpu().freeAt();
                        if (pending_busy0_ < owner_.dom_.engine().now())
                            pending_busy0_ = owner_.dom_.engine().now();
                    }
                    // A frontend must not use offloads it never
                    // advertised (it has no way to know we honour
                    // them).
                    if ((pending_gso_ != 0 && !feature_gso_) ||
                        (pending_csum_blank_ && !feature_csum_)) {
                        status = NetifWire::statusError;
                        if (more)
                            discard_chain_ = true;
                        trace_.stageEnd(pending_flow_, "netback_tx",
                                        owner_.dom_.engine().now());
                        pending_flow_ = 0;
                    }
                }

                if (status == NetifWire::statusOk) {
                    owner_.dom_.vcpu().charge(c.backendPerRequest,
                                              "netback.request",
                                              trace::Cat::Hypervisor);
                    bool injected = false;
                    if (inject_tx_map_failures_ > 0) {
                        inject_tx_map_failures_--;
                        injected = true;
                    }
                    // A persistent page is borrowed from the cache;
                    // a one-shot mapping lives in one_shot.
                    std::optional<Cstruct> one_shot;
                    Cstruct *page = nullptr;
                    if (!injected && persistent) {
                        page = pmap_.map(gref);
                    } else if (!injected) {
                        auto m = hv.grantMap(owner_.dom_, frontend_, gref,
                                             false);
                        if (m.ok())
                            page = &one_shot.emplace(std::move(m.value()));
                    }
                    if (page &&
                        std::size_t(offset) + len <= page->length()) {
                        // Hold the fragment view; the shared page
                        // stays alive through the cached mapping
                        // (persistent) or the frontend's own
                        // reference (one-shot).
                        pending_frags_.push_back(page->sub(offset, len));
                        pending_bytes_ += len;
                    } else {
                        status = NetifWire::statusError;
                        pending_frags_.clear();
                        pending_bytes_ = 0;
                        if (more)
                            discard_chain_ = true;
                        trace_.stageEnd(pending_flow_, "netback_tx",
                                        owner_.dom_.engine().now());
                        pending_flow_ = 0;
                    }
                    if (one_shot)
                        hv.grantUnmap(owner_.dom_, frontend_, gref);
                }
            }

            if (!more)
                discard_chain_ = false;
            if (!more && status == NetifWire::statusOk &&
                !pending_frags_.empty())
                forwardChain();

            CstructView rsp = tx_ring_->startResponse().value();
            rsp.setLe16(NetifWire::txrspId, id);
            rsp.setU8(NetifWire::txrspStatus, status);
            any = true;
        }
        if (park) {
            tx_ring_->suppressRequestEvents();
            break;
        }
    } while (tx_ring_->finalCheckForRequests());
    // pushResponses() asks for a notify only while the frontend has its
    // rsp_event armed — a polling frontend hears nothing and pays
    // nothing.
    if (any && tx_ring_->pushResponses())
        hv.events().notify(owner_.dom_, tx_port_);
    return any;
}

void
Netback::Vif::forwardChain()
{
    const auto &c = sim::costs();
    trace::FlowTracker *fl = owner_.dom_.engine().flows();
    std::vector<Cstruct> frags = std::move(pending_frags_);
    std::size_t total = pending_bytes_;
    u16 gso = pending_gso_;
    bool csum_blank = pending_csum_blank_;
    pending_frags_.clear();
    pending_bytes_ = 0;
    pending_gso_ = 0;
    pending_csum_blank_ = false;

    // When the backend must rewrite headers (TSO) or fill the blank
    // checksum, parse the frame geometry. The frontend may split the
    // headers across fragments (the stack sends eth+IP and TCP as
    // separate views of its header page), so parse from a chain-aware
    // copy of the leading bytes, never from frags[0] alone.
    constexpr std::size_t eth_hdr = 14;
    std::size_t ihl = 0;
    std::size_t hdr_len = 0;
    bool parsed = false;
    if (gso != 0 || csum_blank) {
        // Enough for eth + maximal IP (60) + maximal TCP (60) headers.
        std::size_t probe_len =
            std::min<std::size_t>(total, eth_hdr + 60 + 60);
        Cstruct head = Cstruct::create(probe_len);
        copyFromChain(head, 0, frags, 0, probe_len);
        if (probe_len >= eth_hdr + 20 && head.getBe16(12) == 0x0800 &&
            (head.getU8(eth_hdr) >> 4) == 4) {
            ihl = std::size_t(head.getU8(eth_hdr) & 0xf) * 4;
            if (head.getU8(eth_hdr + 9) == 6 &&
                probe_len >= eth_hdr + ihl + 20) {
                std::size_t tcp_hdr =
                    std::size_t(head.getU8(eth_hdr + ihl + 12) >> 4) *
                    4;
                hdr_len = eth_hdr + ihl + tcp_hdr;
                parsed = total >= hdr_len;
            }
        }
    }
    check::Checker *ck = owner_.dom_.engine().checker();
    if (ck && !ck->enabled())
        ck = nullptr;
    if ((gso != 0 || csum_blank) && !parsed) {
        // Offload asked for on a frame we cannot parse: nothing valid
        // can reach the wire. Drop it, as real netback errors such
        // packets.
        dropped_++;
    } else if (gso == 0) {
        // Plain (possibly csum-blank) frame: coalesce the chain into
        // one owned frame — the backend's copy-out — filling the
        // checksum during the pass when asked.
        Cstruct owned = Cstruct::create(total);
        copyFromChain(owned, 0, frags, 0, total);
        owner_.dom_.vcpu().charge(c.copy(total), "netback.copy",
                                  trace::Cat::Hypervisor);
        if (csum_blank) {
            fillTcpWireChecksum(owned, eth_hdr, ihl);
            owner_.dom_.vcpu().charge(
                Duration(i64(c.netbackCsumNsPerByte * double(total))),
                "netback.csum", trace::Cat::Hypervisor);
            if (ck && tcpWireChecksum(owned, eth_hdr, ihl) != 0)
                ck->violation(check::Subsystem::Net,
                              "csum_blank_on_wire",
                              "csum-offloaded frame left netback "
                              "with an invalid TCP checksum");
        }
        // The switched frame continues the request flow: the fabric
        // hop and far-side delivery inherit it through the engine's
        // ambient propagation.
        trace::FlowScope scope(fl, pending_flow_);
        owner_.bridge_.send(this, owned);
    } else {
        // TSO chain: segment at the backend boundary. Derived frames
        // carry whole multiples of the MSS up to the receiver's
        // posted-page capacity — backend segmentation composes with
        // receive-side GRO merging, as in Xen's netback, so neither
        // end pays per-MSS per-packet costs.
        std::size_t mss = gso;
        std::size_t payload_total = total - hdr_len;
        std::size_t per_frame =
            pageSize > hdr_len + mss
                ? ((pageSize - hdr_len) / mss) * mss
                : mss;
        // The template header may itself span fragments: flatten it
        // once and stamp every derived segment from the copy.
        Cstruct base_hdr = Cstruct::create(hdr_len);
        copyFromChain(base_hdr, 0, frags, 0, hdr_len);
        u16 base_ident = base_hdr.getBe16(eth_hdr + 4);
        u32 base_seq = base_hdr.getBe32(eth_hdr + ihl + 4);
        u8 base_tcp_flags = base_hdr.getU8(eth_hdr + ihl + 13);
        std::size_t done = 0;
        u16 seg_ix = 0;
        while (done < payload_total) {
            std::size_t piece =
                std::min(per_frame, payload_total - done);
            bool last_seg = done + piece == payload_total;
            Cstruct seg = Cstruct::create(hdr_len + piece);
            copyFromChain(seg, 0, {base_hdr}, 0, hdr_len);
            copyFromChain(seg, hdr_len, frags, hdr_len + done, piece);
            // IP: fresh total length and ident, recomputed header
            // checksum.
            seg.setBe16(eth_hdr + 2, u16(hdr_len - eth_hdr + piece));
            seg.setBe16(eth_hdr + 4, u16(base_ident + seg_ix));
            seg.setBe16(eth_hdr + 10, 0);
            seg.setBe16(eth_hdr + 10,
                        internetChecksum(seg.sub(eth_hdr, ihl)));
            // TCP: advance the sequence, clear FIN|PSH on all but the
            // final segment, fill the checksum.
            seg.setBe32(eth_hdr + ihl + 4, base_seq + u32(done));
            u8 tcp_flags = base_tcp_flags;
            if (!last_seg)
                tcp_flags &= u8(~0x09);
            seg.setU8(eth_hdr + ihl + 13, tcp_flags);
            fillTcpWireChecksum(seg, eth_hdr, ihl);
            // Charge the copy-out, the fused checksum pass and the
            // per-MSS header fixup — dom0's share of segmentation,
            // where the paper's cost model puts it.
            std::size_t n_mss = (piece + mss - 1) / mss;
            owner_.dom_.vcpu().charge(c.copy(hdr_len + piece),
                                      "netback.copy",
                                      trace::Cat::Hypervisor);
            owner_.dom_.vcpu().charge(
                Duration(i64(c.netbackCsumNsPerByte *
                             double(hdr_len + piece))),
                "netback.csum", trace::Cat::Hypervisor);
            owner_.dom_.vcpu().charge(
                Duration(c.netbackSegmentFixup.ns() * i64(n_mss)),
                "netback.segment", trace::Cat::Hypervisor);
            if (ck && tcpWireChecksum(seg, eth_hdr, ihl) != 0)
                ck->violation(check::Subsystem::Net,
                              "csum_blank_on_wire",
                              "derived TSO segment left netback "
                              "with an invalid TCP checksum");
            // Every derived segment rides the chain's flow across the
            // bridge, so far-side deliveries stamp it per frame.
            trace::FlowScope scope(fl, pending_flow_);
            owner_.bridge_.send(this, seg);
            done += piece;
            seg_ix++;
        }
    }

    if (pending_flow_) {
        // The stage covers the backend's modeled CPU work for this
        // packet (map, copy-out/segment, switch): the growth of dom0's
        // vCPU backlog since the first fragment, not the whole
        // shared-queue drain.
        TimePoint now = owner_.dom_.engine().now();
        TimePoint busy = owner_.dom_.vcpu().freeAt();
        i64 work_ns = busy.ns() - pending_busy0_.ns();
        if (work_ns < 0)
            work_ns = 0;
        trace_.stageEnd(pending_flow_, "netback_tx",
                        TimePoint(now.ns() + work_ns));
    }
    pending_flow_ = 0;
}

void
Netback::Vif::onRxEvent()
{
    if (!rx_ring_)
        return; // event raced with disconnect
    // rx requests are *posted buffers*: a full ring means spare
    // capacity, so the HWM is informational only (no full alert).
    if (rx_mark_)
        frontend_.stats()->noteRing(*rx_mark_,
                                    rx_ring_->unconsumedRequests(),
                                    RingLayout::slotCount, false);
    // The frontend posted fresh rx buffers; harvest them.
    do {
        while (rx_ring_->unconsumedRequests() > 0) {
            CstructView req = rx_ring_->takeRequest().value();
            u16 rflags = req.getLe16(NetifWire::rxreqFlags);
            posted_rx_.push_back(PostedRx{
                req.getLe16(NetifWire::rxreqId),
                req.getLe32(NetifWire::rxreqGrant),
                (rflags & NetifWire::rxflagPersistent) != 0});
        }
    } while (rx_ring_->finalCheckForRequests());
    // Deliver frames that were waiting for buffers, oldest first.
    while (!rx_backlog_.empty() && !posted_rx_.empty()) {
        Cstruct frame = std::move(rx_backlog_.front());
        rx_backlog_.pop_front();
        deliverFrame(frame);
    }
    // With buffers banked we poll the ring on demand from
    // frameFromBridge(): park req_event so reposts stop ringing the
    // doorbell. The final-check above re-arms it whenever the bank has
    // run dry, so a starved backend still hears about the next post.
    if (sim::tuning().doorbellBatching && !posted_rx_.empty())
        rx_ring_->suppressRequestEvents();
}

void
Netback::Vif::frameFromBridge(const Cstruct &frame)
{
    if (!rx_ring_) {
        dropped_++; // frame raced with disconnect
        return;
    }
    // Late buffer harvest, as netback does on its rx path (also flushes
    // any backlog the harvest unblocked).
    onRxEvent();
    if (!rx_backlog_.empty() || posted_rx_.empty()) {
        // No buffer for this frame (or older frames are still waiting
        // — ordering): park it until the frontend reposts.
        if (rx_backlog_.size() >= rxBacklogLimit) {
            dropped_++;
            return;
        }
        rx_backlog_.push_back(frame);
        return;
    }
    deliverFrame(frame);
}

void
Netback::Vif::deliverFrame(const Cstruct &frame)
{
    Hypervisor &hv = owner_.dom_.hypervisor();
    const auto &c = sim::costs();
    trace::ProfScope pscope(owner_.dom_.engine().profiler(), "hyp/netback/rx");
    PostedRx post = posted_rx_.front();
    posted_rx_.pop_front();

    owner_.dom_.vcpu().charge(c.backendPerRequest, "netback.request",
                              trace::Cat::Hypervisor);
    // A persistent buffer is filled through the cache's own mapping
    // (borrowed: no reference taken per frame).
    std::optional<Cstruct> one_shot;
    Cstruct *page = nullptr;
    if (post.persistent)
        page = pmap_.map(post.gref);
    else if (auto m = hv.grantMap(owner_.dom_, frontend_, post.gref, true);
             m.ok())
        page = &one_shot.emplace(std::move(m.value()));
    u8 status = NetifWire::statusOk;
    u16 len = u16(std::min<std::size_t>(frame.length(), pageSize));
    if (page && len <= page->length()) {
        page->blitFrom(frame, 0, 0, len);
        owner_.dom_.vcpu().charge(c.copy(len), "netback.copy",
                                  trace::Cat::Hypervisor);
    } else {
        status = NetifWire::statusError;
    }
    if (one_shot)
        hv.grantUnmap(owner_.dom_, frontend_, post.gref);

    // Stamp the delivery's ambient flow (carried here through the
    // bridge hop) so the frontend can restore it per drained slot —
    // its rx ring may be drained by a flow-less poll timer.
    trace::FlowTracker *fl = owner_.dom_.engine().flows();
    u64 flow = fl ? fl->current() : 0;

    CstructView rsp = rx_ring_->startResponse().value();
    rsp.setLe16(NetifWire::rxrspId, post.id);
    rsp.setLe16(NetifWire::rxrspLen, len);
    rsp.setU8(NetifWire::rxrspStatus, status);
    rsp.setLe32(NetifWire::rxrspFlow, u32(flow));
    if (rx_ring_->pushResponses()) {
        // Deliveries arrive one frame per fabric slot; a lazy doorbell
        // coalesces back-to-back fills into one upcall, like a NIC's
        // interrupt mitigation.
        if (sim::tuning().doorbellBatching && rx_bell_)
            rx_bell_->ring();
        else
            hv.events().notify(owner_.dom_, rx_port_);
    }
}

} // namespace mirage::xen
