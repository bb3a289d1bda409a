/**
 * @file
 * Domain — one guest VM: identity, memory size, vCPUs, page tables,
 * grant table, event ports, and the block/wake interface that PVBoot's
 * domainpoll builds on.
 */

#ifndef MIRAGE_HYPERVISOR_DOMAIN_H
#define MIRAGE_HYPERVISOR_DOMAIN_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "hypervisor/event_channel.h"
#include "hypervisor/grant_table.h"
#include "hypervisor/paging.h"
#include "sim/cpu.h"
#include "trace/layer.h"

namespace mirage::trace {
class Profiler;
struct DomainStats;
struct RingMark;
} // namespace mirage::trace

namespace mirage::xen {

class Hypervisor;

/** Guest flavour; determines the boot cost model (Figs 5 & 6). */
enum class GuestKind {
    Unikernel,        //!< Mirage-style standalone kernel
    LinuxMinimal,     //!< minimal kernel + initrd "time-to-userspace"
    LinuxDebianApache //!< full distro boot scripts + Apache2
};

/** Lifecycle state of a domain. */
enum class DomainState { Building, Running, Blocked, Shutdown };

class Domain
{
  public:
    /** Reason a domainpoll block completed. */
    enum class WakeReason { Event, Timeout };

    /** All of the domain's timers, vcpus and driver work run on the
     *  hypervisor's engine. */
    Domain(Hypervisor &hv, DomId id, std::string name, GuestKind kind,
           std::size_t memory_mib, unsigned vcpus);

    DomId id() const { return id_; }
    const std::string &name() const { return name_; }
    GuestKind kind() const { return kind_; }
    std::size_t memoryMib() const { return memory_mib_; }
    DomainState state() const { return state_; }
    void setState(DomainState s) { state_ = s; }

    Hypervisor &hypervisor() { return hv_; }
    /** The hypervisor's engine. */
    sim::Engine &engine() { return engine_; }
    sim::Cpu &vcpu(unsigned i = 0) { return *vcpus_.at(i); }

    PageTables &pageTables() { return pt_; }
    GrantTable &grantTable() { return grants_; }

    /**
     * Stop the domain. Teardown order: registered shutdown hooks run
     * first (newest first, so backends detach in reverse attach order
     * and unmap their grants), then every event channel the domain is
     * bound to is closed, then an enabled checker audits the domain
     * for leaked grant mappings. Idempotent; later calls are ignored.
     */
    void shutdown();

    /**
     * Run @p hook when this domain shuts down (backends register
     * their disconnect here). Hooks run LIFO, once.
     */
    void addShutdownHook(std::function<void()> hook);

    // ---- Event ports (guest side) ------------------------------------
    /** Allocate a local port number (used by the hub). */
    Port allocPort();

    /** Register the upcall handler run when the port fires. */
    void setPortHandler(Port port, std::function<void()> handler);

    bool portPending(Port port) const;
    void clearPending(Port port);

    /** Hypervisor-side delivery: marks pending, runs handler, wakes
     *  a pending domainpoll. */
    void deliverEvent(Port port);

    /**
     * PVBoot's domainpoll primitive: block until one of @p ports fires
     * or @p timeout elapses, then call @p wake exactly once. If a
     * watched port is already pending, wakes on the next event-loop
     * turn.
     */
    void poll(const std::vector<Port> &ports, Duration timeout,
              std::function<void(WakeReason)> wake);

    /** True when the domain sits in a domainpoll. */
    bool blocked() const { return poll_active_; }

    // ---- Per-domain accounting ---------------------------------------
    /** The profiler's DomainStats record for this domain (bound at
     *  construction when the engine carries telemetry), or null. */
    trace::DomainStats *stats() const { return stats_; }

  private:
    struct PortState
    {
        bool valid = false;
        bool pending = false;
        std::function<void()> handler;
    };

    Hypervisor &hv_;
    sim::Engine &engine_;
    DomId id_;
    std::string name_;
    GuestKind kind_;
    std::size_t memory_mib_;
    DomainState state_ = DomainState::Building;
    std::vector<std::unique_ptr<sim::Cpu>> vcpus_;
    PageTables pt_;
    GrantTable grants_;
    std::vector<PortState> ports_;
    std::vector<std::function<void()>> shutdown_hooks_;
    trace::DomainStats *stats_ = nullptr;

    // domainpoll bookkeeping
    bool poll_active_ = false;
    std::vector<Port> poll_ports_;
    std::function<void(Domain::WakeReason)> poll_wake_;
    sim::EventId poll_timer_ = 0;
    TimePoint poll_started_;
    trace::LayerTrace poll_trace_; //!< the "<dom>/domainpoll" track

    void finishPoll(WakeReason reason);
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_DOMAIN_H
