#include "hypervisor/ring.h"

#include "base/logging.h"
#include "check/check.h"

namespace mirage::xen {

namespace {

/** Enabled checker for a ring end, or nullptr (one pointer test). */
inline check::Checker *
liveChecker(check::Checker *ck)
{
    return (ck && ck->enabled()) ? ck : nullptr;
}

} // namespace

SharedRing::SharedRing(Cstruct page)
    : page_(std::move(page)), hdr_(page_.data())
{
    // The one bounds check the header counters need: the page (and so
    // hdr_) lives as long as this ring and never shrinks.
    CHECK_GE(page_.length(), RingLayout::pageBytes());
}

void
SharedRing::init()
{
    setReqProd(0);
    setReqEvent(1);
    setRspProd(0);
    setRspEvent(1);
}

// ---- FrontRing -----------------------------------------------------------

FrontRing::FrontRing(Cstruct page) : ring_(std::move(page)) {}

Result<CstructView>
FrontRing::startRequest()
{
    if (freeRequests() == 0)
        return exhaustedError("ring full");
    CstructView s = ring_.slot(req_prod_pvt_);
    req_prod_pvt_++;
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringStartRequest(check_id_, req_prod_pvt_, rsp_cons_);
    return s;
}

bool
FrontRing::pushRequests()
{
    u32 old = ring_.reqProd();
    u32 now = req_prod_pvt_;
    // wmb(): the slot contents must be visible before the index —
    // a no-op in the single-threaded simulation but kept as the
    // protocol's ordering point.
    ring_.setReqProd(now);
    trace::bump(c_req_pushed_, now - old);
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringPublishRequests(check_id_, old, now);
    // Notify iff the consumer's req_event lies in (old, now].
    return (now - ring_.reqEvent()) < (now - old);
}

Result<CstructView>
FrontRing::takeResponse()
{
    if (unconsumedResponses() == 0) {
        if (ring_.rspProd() == rsp_cons_)
            return exhaustedError("no responses");
        refuseUnsolicited();
        return stateError("response beyond the requests outstanding");
    }
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringConsumeResponse(check_id_, rsp_cons_, ring_.rspProd());
    CstructView s = ring_.slot(rsp_cons_);
    rsp_cons_++;
    trace::bump(c_rsp_taken_);
    return s;
}

void
FrontRing::attachMetrics(trace::MetricsRegistry *reg,
                         const std::string &prefix)
{
    c_req_pushed_ = trace::total(reg, prefix + ".req_pushed");
    c_rsp_taken_ = trace::total(reg, prefix + ".rsp_taken");
}

void
FrontRing::attachChecker(check::Checker *ck, const char *name)
{
    checker_ = ck;
    // Register the shadow even while the checker is disabled so a later
    // enable() still finds counters snapshot at attach time.
    if (ck)
        check_id_ = ck->ringAttach(ring_.page().data(), name,
                                   RingLayout::slotCount, ring_.reqProd(),
                                   ring_.rspProd());
}

void
FrontRing::resume()
{
    req_prod_pvt_ = ring_.reqProd();
    rsp_cons_ = ring_.rspProd();
}

bool
FrontRing::finalCheckForResponses()
{
    ring_.setRspEvent(rsp_cons_ + 1);
    // mb(): re-check after arming, closing the wakeup race.
    if (u32(ring_.rspProd() - rsp_cons_) > req_prod_pvt_ - rsp_cons_)
        refuseUnsolicited();
    return unconsumedResponses() > 0;
}

void
FrontRing::refuseUnsolicited()
{
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringRefuseResponses(check_id_, ring_.rspProd(), req_prod_pvt_);
}

void
FrontRing::suppressResponseEvents()
{
    ring_.setRspEvent(rsp_cons_ + RingLayout::slotCount + 1);
}

// ---- BackRing ------------------------------------------------------------

BackRing::BackRing(Cstruct page) : ring_(std::move(page)) {}

Result<CstructView>
BackRing::takeRequest()
{
    if (unconsumedRequests() == 0) {
        if (ring_.reqProd() == req_cons_)
            return exhaustedError("no requests");
        refuseRunaway();
        return stateError("req_prod published past the ring");
    }
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringConsumeRequest(check_id_, req_cons_, ring_.reqProd());
    CstructView s = ring_.slot(req_cons_);
    req_cons_++;
    trace::bump(c_req_taken_);
    return s;
}

Result<CstructView>
BackRing::startResponse()
{
    // Responses reuse request slots; the frontend's flow control
    // guarantees a response slot is free once its request was consumed.
    CstructView s = ring_.slot(rsp_prod_pvt_);
    rsp_prod_pvt_++;
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringStartResponse(check_id_, rsp_prod_pvt_, req_cons_);
    return s;
}

bool
BackRing::pushResponses()
{
    u32 old = ring_.rspProd();
    u32 now = rsp_prod_pvt_;
    ring_.setRspProd(now);
    trace::bump(c_rsp_pushed_, now - old);
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringPublishResponses(check_id_, old, now);
    return (now - ring_.rspEvent()) < (now - old);
}

bool
BackRing::finalCheckForRequests()
{
    ring_.setReqEvent(req_cons_ + 1);
    if (unconsumedRequests() == 0 && ring_.reqProd() != req_cons_)
        refuseRunaway();
    return unconsumedRequests() > 0;
}

void
BackRing::refuseRunaway()
{
    if (check::Checker *ck = liveChecker(checker_))
        ck->ringRefuseRequests(check_id_, ring_.reqProd(), req_cons_);
}

void
BackRing::suppressRequestEvents()
{
    ring_.setReqEvent(req_cons_ + RingLayout::slotCount + 1);
}

void
BackRing::attachMetrics(trace::MetricsRegistry *reg,
                        const std::string &prefix)
{
    c_req_taken_ = trace::total(reg, prefix + ".req_taken");
    c_rsp_pushed_ = trace::total(reg, prefix + ".rsp_pushed");
}

void
BackRing::attachChecker(check::Checker *ck, const char *name)
{
    checker_ = ck;
    if (ck)
        check_id_ = ck->ringAttach(ring_.page().data(), name,
                                   RingLayout::slotCount, ring_.reqProd(),
                                   ring_.rspProd());
}

void
BackRing::resume()
{
    req_cons_ = ring_.reqProd();
    rsp_prod_pvt_ = ring_.rspProd();
}

} // namespace mirage::xen
