#include "hypervisor/blkback.h"

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "hypervisor/xen.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"
#include "hypervisor/ring.h"
#include "trace/flow.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::xen {

VirtualDisk::VirtualDisk(sim::Engine &engine, std::string name,
                         u64 size_sectors)
    : engine_(engine), server_(engine, name), size_sectors_(size_sectors),
      requests_(trace::total(engine.metrics(), "disk.requests",
                             trace::Listed::OnceCounted))
{
}

std::vector<u8> &
VirtualDisk::chunkFor(u64 sector)
{
    u64 key = sector / chunkSectors;
    auto it = chunks_.find(key);
    if (it == chunks_.end()) {
        it = chunks_
                 .emplace(key, std::vector<u8>(chunkSectors *
                                               BlkifWire::sectorBytes))
                 .first;
    }
    return it->second;
}

Status
VirtualDisk::readSync(u64 sector, u32 count, Cstruct dst)
{
    if (sector + count > size_sectors_)
        return boundsError("read past end of disk");
    if (dst.length() < std::size_t(count) * BlkifWire::sectorBytes)
        return boundsError("read buffer too small");
    // One chunk lookup per run of sectors that share a chunk.
    for (u32 i = 0; i < count;) {
        u64 s = sector + i;
        std::size_t in_chunk = std::size_t(s % chunkSectors);
        u32 n = u32(std::min<u64>(count - i, chunkSectors - in_chunk));
        std::memcpy(dst.data() + std::size_t(i) * BlkifWire::sectorBytes,
                    chunkFor(s).data() + in_chunk * BlkifWire::sectorBytes,
                    std::size_t(n) * BlkifWire::sectorBytes);
        i += n;
    }
    return Status::success();
}

Status
VirtualDisk::writeSync(u64 sector, u32 count, const Cstruct &src)
{
    if (sector + count > size_sectors_)
        return boundsError("write past end of disk");
    if (src.length() < std::size_t(count) * BlkifWire::sectorBytes)
        return boundsError("write buffer too small");
    for (u32 i = 0; i < count;) {
        u64 s = sector + i;
        std::size_t in_chunk = std::size_t(s % chunkSectors);
        u32 n = u32(std::min<u64>(count - i, chunkSectors - in_chunk));
        std::memcpy(chunkFor(s).data() + in_chunk * BlkifWire::sectorBytes,
                    src.data() + std::size_t(i) * BlkifWire::sectorBytes,
                    std::size_t(n) * BlkifWire::sectorBytes);
        i += n;
    }
    return Status::success();
}

Duration
VirtualDisk::serviceTime(u32 count) const
{
    const auto &c = sim::costs();
    double bytes = double(count) * BlkifWire::sectorBytes;
    return Duration(i64(bytes / c.ssdBytesPerNs));
}

// The device model: each command pays the fixed flash/command latency,
// but commands overlap (NCQ) — only the data transfer serialises on
// the device's internal bus. Small reads at low queue depth are thus
// latency-bound; large or deeply queued reads approach the bandwidth
// ceiling. This is the two-regime shape Fig 9 sweeps across.

void
VirtualDisk::readAsync(u64 sector, u32 count, Cstruct dst,
                       std::function<void(Status)> done)
{
    requests_.inc();
    engine_.after(sim::costs().ssdPerRequest, [this, sector, count,
                                               dst,
                                               done = std::move(done)] {
        server_.submit(serviceTime(count),
                       [this, sector, count, dst,
                        done = std::move(done)]() {
                           done(readSync(sector, count, dst));
                       },
                       "disk.read", trace::Cat::Storage);
    });
}

void
VirtualDisk::writeAsync(u64 sector, u32 count, Cstruct src,
                        std::function<void(Status)> done)
{
    requests_.inc();
    engine_.after(sim::costs().ssdPerRequest, [this, sector, count,
                                               src = std::move(src),
                                               done = std::move(done)] {
        server_.submit(serviceTime(count),
                       [this, sector, count, src,
                        done = std::move(done)]() {
                           done(writeSync(sector, count, src));
                       },
                       "disk.write", trace::Cat::Storage);
    });
}

// ---- Blkback ---------------------------------------------------------------

Blkback::Blkback(Domain &backend_dom, VirtualDisk &disk)
    : dom_(backend_dom), disk_(disk), pmap_(backend_dom, "blkback"),
      trace_(backend_dom.engine().telemetry(), backend_dom.name(),
             "/blkback")
{
}

void
Blkback::connect(Domain &frontend, GrantRef ring_grant, Port backend_port)
{
    Hypervisor &hv = dom_.hypervisor();
    auto page = hv.grantMap(dom_, frontend, ring_grant, true);
    if (!page.ok())
        fatal("blkback: cannot map ring grant for %s",
              frontend.name().c_str());
    frontend_ = &frontend;
    if (trace::DomainStats *s = frontend.stats())
        mark_ = &s->ring("blkback");
    port_ = backend_port;
    ring_grant_ = ring_grant;
    pmap_.bind(&frontend);
    bell_ = std::make_unique<LazyDoorbell>(hv.events(), dom_, port_);
    ring_.emplace(page.value());
    ring_->attachMetrics(dom_.engine().metrics(), "ring.blkback");
    ring_->attachChecker(dom_.engine().checker(), "ring.blkback");
    dom_.setPortHandler(port_, [this] {
        dom_.clearPending(port_);
        onEvent();
    });
    frontend.addShutdownHook([this] { disconnect(); });
}

void
Blkback::disconnect()
{
    if (!frontend_)
        return;
    Hypervisor &hv = dom_.hypervisor();
    // A pending deferred notify must not fire after the port closes.
    bell_.reset();
    // In-flight data grants first, then the ring page itself.
    for (GrantRef gref : mapped_grefs_)
        hv.grantUnmap(dom_, *frontend_, gref);
    mapped_grefs_.clear();
    pmap_.unmapAll();
    ring_.reset();
    hv.grantUnmap(dom_, *frontend_, ring_grant_);
    frontend_ = nullptr;
    mark_ = nullptr;
}

void
Blkback::complete(u64 id, u8 status)
{
    CHECK(ring_);
    // The blkif response slot has no flow field on the wire; the
    // frontend restores attribution from its Pending map keyed by the
    // echoed request id, so this hop does not lose the flow.
    // mirage-lint: allow(flow-scope-hop) flow restored via rsp id
    CstructView rsp = ring_->startResponse().value();
    rsp.setLe64(BlkifWire::rspId, id);
    rsp.setU8(BlkifWire::rspStatus, status);
    if (ring_->pushResponses()) {
        if (sim::tuning().doorbellBatching && bell_)
            bell_->ring();
        else
            dom_.hypervisor().events().notify(dom_, port_);
    }
}

void
Blkback::onEvent()
{
    if (!ring_)
        return; // event raced with disconnect
    Hypervisor &hv = dom_.hypervisor();
    const auto &c = sim::costs();
    trace::ProfScope pscope(dom_.engine().profiler(), "hyp/blkback");
    if (mark_)
        frontend_->stats()->noteRing(*mark_, ring_->unconsumedRequests(),
                                     RingLayout::slotCount);
    do {
        while (ring_->unconsumedRequests() > 0) {
            CstructView req = ring_->takeRequest().value();
            u64 id = req.getLe64(BlkifWire::reqId);
            u8 op = req.getU8(BlkifWire::reqOp);
            u8 sectors = req.getU8(BlkifWire::reqSectors);
            bool persistent =
                (req.getU8(BlkifWire::reqFlags) &
                 BlkifWire::flagPersistent) != 0;
            std::size_t offset = req.getLe32(BlkifWire::reqOffset);
            u64 sector = req.getLe64(BlkifWire::reqSector);
            GrantRef gref = req.getLe32(BlkifWire::reqGrant);
            u64 flow = req.getLe32(BlkifWire::reqFlow);
            dom_.vcpu().charge(c.backendPerRequest, "blkback.request",
                               trace::Cat::Hypervisor);
            trace_.stageBegin(flow, "blkback", dom_.engine().now());

            if (sectors == 0 || sectors > BlkifWire::maxSectors) {
                trace_.stageEnd(flow, "blkback", dom_.engine().now());
                complete(id, BlkifWire::statusError);
                continue;
            }
            bool write = op == BlkifWire::opWrite;
            // Persistent grants are mapped through the cache and stay
            // mapped (always readwrite — the pool issues writable
            // grants); one-shot grants map here and unmap in finish().
            // A persistent page is borrowed from the cache; a one-shot
            // mapping lives in one_shot until finish() unmaps it.
            std::optional<Cstruct> one_shot;
            Cstruct *page = nullptr;
            if (persistent)
                page = pmap_.map(gref);
            else if (auto m = hv.grantMap(dom_, *frontend_, gref, !write);
                     m.ok())
                page = &one_shot.emplace(std::move(m.value()));
            std::size_t bytes =
                std::size_t(sectors) * BlkifWire::sectorBytes;
            if (page && offset + bytes > page->length()) {
                // Outside the granted region.
                if (one_shot)
                    hv.grantUnmap(dom_, *frontend_, gref);
                page = nullptr;
            }
            if (!page) {
                trace_.stageEnd(flow, "blkback", dom_.engine().now());
                complete(id, BlkifWire::statusError);
                continue;
            }
            Cstruct data = page->sub(offset, bytes);
            if (!persistent)
                mapped_grefs_.push_back(gref);
            inflight_++;
            auto finish = [this, id, gref, persistent, flow](Status st) {
                inflight_--;
                trace_.stageEnd(flow, "blkback", dom_.engine().now());
                if (!frontend_)
                    return; // disconnect() already unmapped everything
                if (!persistent) {
                    auto it = std::find(mapped_grefs_.begin(),
                                        mapped_grefs_.end(), gref);
                    if (it != mapped_grefs_.end())
                        mapped_grefs_.erase(it);
                    dom_.hypervisor().grantUnmap(dom_, *frontend_, gref);
                }
                complete(id, st.ok() ? BlkifWire::statusOk
                                     : BlkifWire::statusError);
                // Requests pushed while req_event was parked are picked
                // up here; the last completion re-arms the event. The
                // drain re-enters from the root scope, not under the
                // hyp/blkback scope this completion inherited, so a
                // chain of requests does not nest one scope per request.
                trace::ProfRestore root(dom_.engine().profiler(), 0);
                onEvent();
            };
            // The disk service chain (and ultimately finish) runs
            // under the request's flow via engine ambient propagation.
            trace::FlowScope scope(dom_.engine().flows(), flow);
            if (write)
                disk_.writeAsync(sector, sectors, data, finish);
            else
                disk_.readAsync(sector, sectors, data, finish);
        }
        // While requests are in flight every completion re-enters this
        // drain, so the ring needs no doorbells: park req_event until
        // the queue runs dry.
        if (sim::tuning().doorbellBatching && inflight_ > 0) {
            ring_->suppressRequestEvents();
            break;
        }
    } while (ring_->finalCheckForRequests());
}

} // namespace mirage::xen
