#include "hypervisor/event_channel.h"

#include "base/logging.h"
#include "check/check.h"
#include "hypervisor/domain.h"
#include "hypervisor/xen.h"
#include "sim/cost_model.h"
#include "sim/shard.h"
#include "sim/tuning.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::xen {

EventChannelHub::EventChannelHub(sim::Engine &engine)
    : engine_(engine),
      c_notifications_(trace::total(engine.metrics(), "evtchn.notifications",
                                    trace::Listed::OnceCounted)),
      c_sent_(trace::total(engine.metrics(), "notify.sent",
                           trace::Listed::OnceCounted)),
      c_suppressed_(trace::total(engine.metrics(), "notify.suppressed",
                                 trace::Listed::OnceCounted))
{
}

check::Checker *
EventChannelHub::checker() const
{
    check::Checker *ck = engine_.checker();
    return (ck && ck->enabled()) ? ck : nullptr;
}

bool
EventChannelHub::wasBoundLocked(Domain &dom, Port port) const
{
    for (const auto &ch : channels_) {
        if (ch.open)
            continue;
        if ((ch.a.dom == &dom && ch.a.port == port) ||
            (ch.b.dom == &dom && ch.b.port == port))
            return true;
    }
    return false;
}

std::pair<Port, Port>
EventChannelHub::connect(Domain &a, Domain &b)
{
    Port pa = a.allocPort();
    Port pb = b.allocPort();
    std::lock_guard<std::mutex> lk(mu_);
    // mirage-lint: allow(model-mutex-order) searched by (domain, port),
    // which matches at most one open channel; closeAllFor only counts
    channels_.push_back(Channel{{&a, pa}, {&b, pb}, true});
    return {pa, pb};
}

EventChannelHub::Channel *
EventChannelHub::findChannelLocked(Domain &dom, Port port, bool &is_a)
{
    for (auto &ch : channels_) {
        if (!ch.open)
            continue;
        if (ch.a.dom == &dom && ch.a.port == port) {
            is_a = true;
            return &ch;
        }
        if (ch.b.dom == &dom && ch.b.port == port) {
            is_a = false;
            return &ch;
        }
    }
    return nullptr;
}

void
EventChannelHub::close(Domain &dom, Port port)
{
    std::lock_guard<std::mutex> lk(mu_);
    bool is_a = false;
    Channel *ch = findChannelLocked(dom, port, is_a);
    if (!ch) {
        if (check::Checker *ck = checker())
            ck->violation(check::Subsystem::Event,
                          wasBoundLocked(dom, port) ? "close_closed_port"
                                                    : "close_unbound_port",
                          strprintf("%s closed port %u",
                                    dom.name().c_str(), port));
        return;
    }
    ch->open = false;
}

std::size_t
EventChannelHub::closeAllFor(Domain &dom)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (auto &ch : channels_) {
        if (ch.open && (ch.a.dom == &dom || ch.b.dom == &dom)) {
            ch.open = false;
            n++;
        }
    }
    return n;
}

Status
EventChannelHub::notify(Domain &dom, Port port)
{
    sim::Engine &eng = dom.engine();
    Domain *peer = nullptr;
    Port peer_port = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        bool is_a = false;
        Channel *ch = findChannelLocked(dom, port, is_a);
        if (!ch) {
            if (check::Checker *ck = checker())
                ck->violation(check::Subsystem::Event,
                              wasBoundLocked(dom, port)
                                  ? "notify_closed_port"
                                  : "notify_unbound_port",
                              strprintf("%s notified port %u",
                                        dom.name().c_str(), port));
            return notFoundError("notify on unbound port");
        }
        peer = is_a ? ch->b.dom : ch->a.dom;
        peer_port = is_a ? ch->b.port : ch->a.port;
    }
    trace::bump(c_notifications_);
    trace::bump(c_sent_);
    if (auto *tr = eng.tracer(); tr && tr->enabled())
        tr->instant(trace::Cat::Hypervisor, "evtchn.notify",
                    eng.now(), 0,
                    trace::jsonObject("from", dom.name(), "port", port));
    trace::ProfScope pscope(eng.profiler(), "hyp/evtchn");
    dom.hypervisor().chargeHypercall(dom, Hypercall::EventNotify);
    dom.vcpu().charge(sim::costs().eventNotify, "evtchn.send",
                      trace::Cat::Hypervisor);
    if (auto *s = dom.stats())
        s->notifies_sent.inc();
    // The receive side of the upcall — including its stats — runs on
    // the peer's home shard at delivery time.
    sim::crossPost(peer->engine(), sim::costs().interrupt,
                   [peer, peer_port] {
                       if (auto *s = peer->stats())
                           s->notifies_received.inc();
                       peer->deliverEvent(peer_port);
                   });
    return Status::success();
}

// ---- DoorbellBatch ---------------------------------------------------------

void
DoorbellBatch::ring(Port port)
{
    for (Port p : ports_) {
        if (p == port) {
            hub_.countSuppressed();
            return;
        }
    }
    ports_.push_back(port);
}

void
DoorbellBatch::flush()
{
    for (Port p : ports_)
        hub_.notify(dom_, p);
    ports_.clear();
}

// ---- LazyDoorbell ----------------------------------------------------------

void
LazyDoorbell::ring()
{
    if (armed_) {
        hub_.countSuppressed();
        return;
    }
    armed_ = true;
    // The window timer lives on the owning domain's shard: ring() and
    // the flush callback both run there, so armed_ needs no lock.
    flush_event_ =
        dom_.engine().after(sim::tuning().doorbellWindow, [this] {
            armed_ = false;
            hub_.notify(dom_, port_);
        });
}

void
LazyDoorbell::cancel()
{
    if (!armed_)
        return;
    dom_.engine().cancel(flush_event_);
    armed_ = false;
}

} // namespace mirage::xen
