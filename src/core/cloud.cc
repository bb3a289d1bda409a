#include "core/cloud.h"

#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace mirage::core {

Guest::Guest(xen::Domain &d, xen::Netback &netback, xen::MacBytes mac,
             net::NetworkStack::Config net_config)
    : dom(d), boot(d), sched(d.engine(), &d.vcpu()),
      nif(boot, netback, mac), stack(nif, sched, net_config),
      console(d)
{
}

Cloud::Cloud(const Config &cfg)
    : cfg_(cfg), hv_(engine_), bridge_(engine_, "xenbr0"),
      dom0_(hv_.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512,
                             2)),
      netback_(dom0_, bridge_),
      toolstack_(hv_, xen::Toolstack::Mode::Parallel)
{
    // Flow ids come from the engine's causal dispatch context when one
    // is active: the id a flow gets is then a pure function of the
    // seed (0 falls back to the tracker's sequential counter for flows
    // begun outside dispatch).
    telemetry_.flows.setIdSource([] {
        sim::Engine *e = sim::Engine::current();
        if (!e)
            return u64(0);
        // Ring slots carry flow ids as le32 (NetifWire::txreqFlow), so
        // the token must survive a 32-bit round-trip for backend stage
        // attribution; fold the 64-bit token down and keep it nonzero.
        u64 tok = e->deriveToken();
        tok = (tok ^ (tok >> 32)) & 0xffffffffu;
        return tok ? tok : u64(1);
    });
    checker_.attachMetrics(telemetry_.metrics);
    // A violation is worth a post-mortem, like a panic or an alert.
    checker_.setViolationHook([this] { telemetry_.dumpFlight(); });
    if (const char *env = std::getenv("MIRAGE_CHECK");
        env && env[0] && std::strcmp(env, "0") != 0) {
        if (std::strcmp(env, "fatal") == 0)
            checker_.setMode(check::Checker::Mode::Fatal);
        checker_.enable();
    }
    dom0_.setState(xen::DomainState::Running);
}

Cloud::~Cloud()
{
    // Guests destruct before the hypervisor (member order), but each
    // domain's grant table holds views of guest-allocated pages whose
    // deleters live in the guest. Shutting the domains down here runs
    // the backend disconnect hooks and releases those entries while
    // everything is still alive.
    for (auto &g : guests_)
        g->dom.shutdown();
}

void
Cloud::enableStallWatchdog(Duration threshold)
{
    stall_enabled_ = true;
    stall_threshold_ = threshold;
    // Re-arm whenever new work arrives; the check self-cancels once no
    // flow is live, so an idle cloud schedules nothing.
    telemetry_.flows.setActivityHook([this] {
        if (stall_enabled_ && !stall_armed_)
            armStallCheck();
    });
    if (flows().liveCount() > 0 && !stall_armed_)
        armStallCheck();
}

void
Cloud::armStallCheck()
{
    stall_armed_ = true;
    stall_last_completed_ = flows().completed();
    stall_progress_at_ns_ = engine_.now().ns();
    engine_.after(Duration::nanos(stall_threshold_.ns() / 4),
                  [this] { stallCheck(); });
}

void
Cloud::stallCheck()
{
    if (!stall_enabled_ || flows().liveCount() == 0) {
        // Nothing in flight: stand down until the next flow begins.
        stall_armed_ = false;
        return;
    }
    u64 completed = flows().completed();
    if (completed != stall_last_completed_) {
        stall_last_completed_ = completed;
        stall_progress_at_ns_ = engine_.now().ns();
    } else if (engine_.now().ns() - stall_progress_at_ns_ >=
               stall_threshold_.ns()) {
        profiler().alert(
            "stall",
            strprintf("no flow completed for %lld ms (%zu live)",
                      (long long)(engine_.now().ns() -
                                  stall_progress_at_ns_) /
                          1'000'000,
                      flows().liveCount()));
        // One-shot: stay quiet until new work re-arms us, so a wedged
        // run produces one dump instead of one per check interval.
        stall_armed_ = false;
        return;
    }
    engine_.after(Duration::nanos(stall_threshold_.ns() / 4),
                  [this] { stallCheck(); });
}

Guest &
Cloud::startUnikernel(const std::string &name, net::Ipv4Addr ip,
                      std::size_t memory_mib, double cpu_factor)
{
    if (cpu_factor < 0)
        cpu_factor = unikernelCpuFactor();
    return startGuest(name, xen::GuestKind::Unikernel, ip, memory_mib,
                      1, cpu_factor);
}

net::NetworkStack::Config
Cloud::netConfigFor(xen::GuestKind kind, net::Ipv4Addr ip,
                    double cpu_factor) const
{
    net::NetworkStack::Config cfg;
    cfg.ip = ip;
    cfg.netmask = cfg_.netmask;
    cfg.gateway = net::Ipv4Addr((ip.raw() & cfg_.netmask.raw()) | 254u);
    cfg.cpuFactor = cpu_factor;
    // Architecture-specific per-packet extras (see the cost model).
    if (kind == xen::GuestKind::Unikernel) {
        cfg.txOverheadPerPacket = sim::costs().mirageTxPerPacket;
        // The clean-slate stack drives the netif offloads: multi-MSS
        // TSO chains and backend checksum fill (gated by tuning).
        cfg.tcpSegOffload = true;
        cfg.csumOffload = true;
    } else {
        cfg.txOverheadPerPacket = sim::costs().linuxTxPerPacket;
        cfg.rxOverheadPerPacket = sim::costs().socketRxPerPacket;
    }
    return cfg;
}

xen::MacBytes
Cloud::nextMac()
{
    u32 n = next_mac_++;
    return {0x02, 0x16, 0x3e, u8(n >> 16), u8(n >> 8), u8(n)};
}

Guest &
Cloud::startGuest(const std::string &name, xen::GuestKind kind,
                  net::Ipv4Addr ip, std::size_t memory_mib,
                  unsigned vcpus, double cpu_factor)
{
    xen::Domain &dom = hv_.createDomain(name, kind, memory_mib, vcpus);
    dom.setState(xen::DomainState::Running);
    guests_.push_back(std::make_unique<Guest>(
        dom, netback_, nextMac(), netConfigFor(kind, ip, cpu_factor)));
    return *guests_.back();
}

void
Cloud::bootUnikernel(
    const std::string &name, net::Ipv4Addr ip, std::size_t memory_mib,
    std::function<void(Guest &, xen::BootBreakdown)> on_ready,
    double cpu_factor)
{
    if (cpu_factor < 0)
        cpu_factor = unikernelCpuFactor();
    xen::BootSpec spec;
    spec.name = name;
    spec.kind = xen::GuestKind::Unikernel;
    spec.memoryMib = memory_mib;
    spec.vcpus = 1;
    // The entry runs at the service-ready instant, under the boot's
    // ambient id, so PVBoot and the driver connects annotate the
    // layout/device_connect phases with their op counts.
    spec.entry = [this, mac = nextMac(),
                  cfg = netConfigFor(xen::GuestKind::Unikernel, ip,
                                     cpu_factor)](xen::Domain &dom) {
        guests_.push_back(std::make_unique<Guest>(dom, netback_, mac, cfg));
    };
    toolstack_.boot(
        std::move(spec),
        [this, cb = std::move(on_ready)](xen::Domain &,
                                         xen::BootBreakdown bd) {
            // entry ran just before this callback, in the same event.
            if (cb)
                cb(*guests_.back(), std::move(bd));
        });
}

xen::VirtualDisk &
Cloud::addDisk(const std::string &name, u64 sectors)
{
    disks_.push_back(
        std::make_unique<xen::VirtualDisk>(engine_, name, sectors));
    return *disks_.back();
}

xen::Blkback &
Cloud::blkbackFor(xen::VirtualDisk &disk)
{
    blkbacks_.push_back(std::make_unique<xen::Blkback>(dom0_, disk));
    return *blkbacks_.back();
}

} // namespace mirage::core
