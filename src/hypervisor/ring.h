/**
 * @file
 * The shared-memory ring protocol (paper Fig 3 and §3.4).
 *
 * One 4 kB page is divided into a header of producer/consumer counters
 * and a power-of-two array of fixed-size slots. Requests and responses
 * share the slot array, indexed by their own producer counters — the
 * frontend's flow control (never more outstanding requests than slots)
 * keeps them from colliding, exactly as in Xen's io/ring.h. The
 * req_event/rsp_event fields implement notification suppression: a
 * producer only notifies when the consumer asked to be woken for the
 * range just published.
 *
 * The header is the layout both ends must agree on: four little-endian
 * u32 counters. SharedRing checks once, at construction, that the page
 * covers it, then reads and writes the counters through a pointer
 * cached from the page (they are touched on every ring operation).
 * Slots are borrowed, bounds-checked CstructViews of that page, which
 * is where the paper's cstruct extension earns its keep: every request
 * and response field is read through a checked accessor, and handing
 * out a slot neither copies nor takes a reference (the ring's own page
 * outlives every slot access).
 *
 * Neither end trusts the counters its peer publishes. The frontend
 * takes no response beyond the requests it has outstanding, and the
 * backend takes no request beyond the slots not owed a response; the
 * checker counts each one refused or overrun.
 */

#ifndef MIRAGE_HYPERVISOR_RING_H
#define MIRAGE_HYPERVISOR_RING_H

#include <string>

#include "base/cstruct.h"
#include "base/endian.h"
#include "base/result.h"
#include "base/types.h"
#include "trace/metrics.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::xen {

/** Geometry shared by both ring ends. */
struct RingLayout
{
    static constexpr std::size_t headerBytes = 64;
    static constexpr std::size_t slotBytes = 64;
    static constexpr u32 slotCount = 32; //!< power of two

    // Header field offsets (little-endian, as on x86 Xen).
    static constexpr std::size_t offReqProd = 0;
    static constexpr std::size_t offReqEvent = 4;
    static constexpr std::size_t offRspProd = 8;
    static constexpr std::size_t offRspEvent = 12;

    static constexpr std::size_t
    pageBytes()
    {
        return headerBytes + std::size_t(slotCount) * slotBytes;
    }
};

/** Accessors over the shared page, common to both ends. */
class SharedRing
{
  public:
    /** Wrap an existing shared page (must be >= pageBytes). */
    explicit SharedRing(Cstruct page);

    /** Zero the header; called once by the frontend before attach. */
    void init();

    u32 reqProd() const { return loadLe32(hdr_ + RingLayout::offReqProd); }
    u32 reqEvent() const { return loadLe32(hdr_ + RingLayout::offReqEvent); }
    u32 rspProd() const { return loadLe32(hdr_ + RingLayout::offRspProd); }
    u32 rspEvent() const { return loadLe32(hdr_ + RingLayout::offRspEvent); }

    void setReqProd(u32 v) { storeLe32(hdr_ + RingLayout::offReqProd, v); }
    void setReqEvent(u32 v) { storeLe32(hdr_ + RingLayout::offReqEvent, v); }
    void setRspProd(u32 v) { storeLe32(hdr_ + RingLayout::offRspProd, v); }
    void setRspEvent(u32 v) { storeLe32(hdr_ + RingLayout::offRspEvent, v); }

    /** Borrowed view of slot @p index (counter value; masked). */
    CstructView slot(u32 index) const
    {
        u32 masked = index & (RingLayout::slotCount - 1);
        return page_.view(RingLayout::headerBytes +
                              std::size_t(masked) * RingLayout::slotBytes,
                          RingLayout::slotBytes);
    }

    const Cstruct &page() const { return page_; }

  private:
    Cstruct page_;
    u8 *hdr_; //!< page_.data(), its length checked in the constructor
};

/**
 * Guest (frontend) end: produces requests, consumes responses.
 */
class FrontRing
{
  public:
    explicit FrontRing(Cstruct page);

    /** Slots available for new requests under flow control. */
    u32 freeRequests() const
    {
        return RingLayout::slotCount - (req_prod_pvt_ - rsp_cons_);
    }

    /**
     * Claim the next request slot. Fails with Exhausted when the ring
     * is full — the caller must back off, never overwrite (§3.4).
     */
    Result<CstructView> startRequest();

    /**
     * Publish claimed requests to the backend.
     * @return true when the backend must be notified.
     */
    bool pushRequests();

    /**
     * Responses published but not yet consumed (read on every poll),
     * counting none beyond the requests outstanding: a backend cannot
     * answer a request it was never sent.
     */
    u32
    unconsumedResponses() const
    {
        u32 published = ring_.rspProd() - rsp_cons_;
        u32 owed = req_prod_pvt_ - rsp_cons_;
        return published < owed ? published : owed;
    }

    /**
     * Consume the next response slot. Fails with Exhausted when none is
     * published, and refuses (checker-counted) a response published
     * beyond the requests outstanding.
     */
    Result<CstructView> takeResponse();

    /**
     * Re-arm notifications after draining: sets rsp_event and re-checks
     * for responses that raced in.
     * @return true when more responses are already waiting.
     */
    bool finalCheckForResponses();

    /**
     * Park rsp_event beyond any index the backend can publish (it never
     * has more responses outstanding than the slot count), so response
     * pushes stop notifying. A frontend polling its rings (sim::Poller)
     * uses this until it goes idle, then re-arms with
     * finalCheckForResponses().
     */
    void suppressResponseEvents();

    /**
     * Count push/take activity in the registry totals
     * `<prefix>.req_pushed` and `<prefix>.rsp_taken` (shared when
     * several rings share a prefix); a null @p reg counts nothing.
     */
    void attachMetrics(trace::MetricsRegistry *reg,
                       const std::string &prefix);

    /**
     * Audit this end against @p ck's shadow of the shared page (both
     * ends of a ring share one shadow). Nullptr detaches; a disabled
     * checker costs one pointer test per operation.
     */
    void attachChecker(check::Checker *ck, const char *name);

    /**
     * Adopt the counters already published in the header — a
     * reconnecting frontend resumes where the previous instance
     * stopped, with everything published considered consumed.
     */
    void resume();

  private:
    /** Report responses published beyond the requests outstanding. */
    void refuseUnsolicited();

    SharedRing ring_;
    u32 req_prod_pvt_ = 0;
    u32 rsp_cons_ = 0;
    trace::Counter *c_req_pushed_ = nullptr;
    trace::Counter *c_rsp_taken_ = nullptr;
    check::Checker *checker_ = nullptr;
    u32 check_id_ = 0;
};

/**
 * Backend end: consumes requests, produces responses.
 */
class BackRing
{
  public:
    explicit BackRing(Cstruct page);

    /**
     * Requests published but not yet consumed (read on every poll):
     * never more than the slots not owed a response, so never more
     * than slotCount. A frontend under flow control cannot publish
     * more; one that does has run away past the ring, and its ring is
     * refused — this reports 0 — until it publishes a sane index, so a
     * forged req_prod costs the backend no work at all.
     */
    u32
    unconsumedRequests() const
    {
        u32 published = ring_.reqProd() - req_cons_;
        u32 room = RingLayout::slotCount - (req_cons_ - rsp_prod_pvt_);
        return published <= room ? published : 0;
    }

    /**
     * Consume the next request slot. Fails with Exhausted when none is
     * published, and refuses (checker-counted) a runaway producer.
     */
    Result<CstructView> takeRequest();

    Result<CstructView> startResponse();
    bool pushResponses();

    /** Re-arm request notifications; true when requests raced in. */
    bool finalCheckForRequests();

    /**
     * Park req_event beyond any index the producer can publish (flow
     * control caps it at cons + slotCount), so request pushes stop
     * notifying. A backend that polls its request ring on demand —
     * netback harvesting posted rx buffers — uses this until it is
     * starved, then re-arms with finalCheckForRequests().
     */
    void suppressRequestEvents();

    /** Count into `<prefix>.req_taken` / `<prefix>.rsp_pushed`. */
    void attachMetrics(trace::MetricsRegistry *reg,
                       const std::string &prefix);

    /** See FrontRing::attachChecker. */
    void attachChecker(check::Checker *ck, const char *name);

    /** Adopt published counters (backend reconnect). */
    void resume();

  private:
    /** Report a producer index published past the ring. */
    void refuseRunaway();

    SharedRing ring_;
    u32 req_cons_ = 0;
    u32 rsp_prod_pvt_ = 0;
    trace::Counter *c_req_taken_ = nullptr;
    trace::Counter *c_rsp_pushed_ = nullptr;
    check::Checker *checker_ = nullptr;
    u32 check_id_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_RING_H
