/**
 * @file
 * Xen-style event channels: the asynchronous notification primitive
 * binding frontends to backends and vchan endpoints to each other.
 *
 * A channel is a pair of ports, one per domain. notify() on one port
 * marks the peer port pending and, after the modelled upcall latency,
 * invokes the handler the peer guest registered (or wakes its
 * domainpoll). Pending bits are level-triggered and cleared by the
 * guest, as on real Xen.
 */

#ifndef MIRAGE_HYPERVISOR_EVENT_CHANNEL_H
#define MIRAGE_HYPERVISOR_EVENT_CHANNEL_H

#include <functional>
#include <vector>

#include "base/result.h"
#include "base/types.h"
#include "sim/engine.h"
#include "trace/metrics.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::xen {

class Domain;

/** Port number local to one domain. */
using Port = u32;

class EventChannelHub
{
  public:
    explicit EventChannelHub(sim::Engine &engine);

    /**
     * Create a channel between two domains.
     * @return the (portA, portB) pair, one port in each domain's space.
     */
    std::pair<Port, Port> connect(Domain &a, Domain &b);

    /** Close a channel from either end; the peer port becomes invalid. */
    void close(Domain &dom, Port port);

    /**
     * Close every channel @p dom is an endpoint of. Called from domain
     * teardown so no port outlives its domain (the dangling-peer bug
     * class the event checker reports as use of an unbound port).
     * @return channels closed.
     */
    std::size_t closeAllFor(Domain &dom);

    /**
     * Send an event from @p dom's @p port to its peer. Charges the
     * notify hypercall on the sender and delivers the upcall after the
     * interrupt latency.
     */
    Status notify(Domain &dom, Port port);

    /** Record a doorbell a batching helper elided. */
    void countSuppressed() { trace::bump(c_suppressed_); }

  private:
    friend class DoorbellBatch;
    friend class LazyDoorbell;
    struct Endpoint
    {
        Domain *dom = nullptr;
        Port port = 0;
    };

    struct Channel
    {
        Endpoint a, b;
        bool open = false;
    };

    Channel *findChannel(Domain &dom, Port port, bool &is_a);
    check::Checker *checker() const;
    /** True when a now-closed channel once bound @p port in @p dom. */
    bool wasBound(Domain &dom, Port port) const;

    sim::Engine &engine_;
    std::vector<Channel> channels_;
    // Registry totals (null without telemetry), listed from the first
    // notify or suppressed doorbell on.
    trace::Counter *const c_notifications_;
    trace::Counter *const c_sent_;
    trace::Counter *const c_suppressed_;
};

/**
 * Scoped doorbell coalescing for a synchronous burst: ring() records
 * that a ring push decided a notify is due; the destructor sends one
 * notify per distinct port. Repeats within the burst count as
 * suppressed (`notify.suppressed`).
 */
class DoorbellBatch
{
  public:
    DoorbellBatch(EventChannelHub &hub, Domain &dom)
        : hub_(hub), dom_(dom)
    {
    }
    ~DoorbellBatch() { flush(); }
    DoorbellBatch(const DoorbellBatch &) = delete;
    DoorbellBatch &operator=(const DoorbellBatch &) = delete;

    void ring(Port port);
    void flush();

  private:
    EventChannelHub &hub_;
    Domain &dom_;
    std::vector<Port> ports_; //!< distinct ports rung this burst
};

/**
 * Deferred doorbell with a coalescing window: the first ring()
 * schedules the actual notify tuning().doorbellWindow later; rings that
 * land inside the window share it — the interrupt-mitigation shape of a
 * real NIC, applied to backend response notifies. cancel() before
 * disconnect so a pending flush never notifies a closed port.
 */
class LazyDoorbell
{
  public:
    LazyDoorbell(EventChannelHub &hub, Domain &dom, Port port)
        : hub_(hub), dom_(dom), port_(port)
    {
    }
    ~LazyDoorbell() { cancel(); }
    LazyDoorbell(const LazyDoorbell &) = delete;
    LazyDoorbell &operator=(const LazyDoorbell &) = delete;

    /** Request a notify; coalesces into any pending window. */
    void ring();

    /** Drop any pending notify (idempotent). */
    void cancel();

  private:
    EventChannelHub &hub_;
    Domain &dom_;
    Port port_;
    bool armed_ = false;
    sim::EventId flush_event_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_EVENT_CHANNEL_H
