/**
 * @file
 * Cloud — the public composition root: one simulated Xen host with a
 * control domain, a software bridge and its backends, on which callers
 * provision unikernel guests with a full network stack in one call.
 * Examples, tests and benches all build on this.
 */

#ifndef MIRAGE_CORE_CLOUD_H
#define MIRAGE_CORE_CLOUD_H

#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "core/linker.h"
#include "drivers/console.h"
#include "drivers/netif.h"
#include "hypervisor/blkback.h"
#include "hypervisor/builder.h"
#include "hypervisor/netback.h"
#include "hypervisor/xen.h"
#include "net/stack.h"
#include "pvboot/pvboot.h"
#include "runtime/scheduler.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "trace/telemetry.h"

namespace mirage::core {

/** One provisioned unikernel guest with its full stack. */
struct Guest
{
    xen::Domain &dom;
    pvboot::PVBoot boot;
    rt::Scheduler sched;
    drivers::Netif nif;
    net::NetworkStack stack;
    drivers::Console console;

    Guest(xen::Domain &d, xen::Netback &netback, xen::MacBytes mac,
          net::NetworkStack::Config net_config);

    /** Seal the address space (§2.3.3) once setup is complete. */
    Status seal() { return boot.seal(); }
};

class Cloud
{
  public:
    /** Construction-time knobs (defaults reproduce the classic host). */
    struct Config
    {
        /** Guest subnet mask; widen for fleets past a /24. */
        net::Ipv4Addr netmask{255, 255, 255, 0};
    };

    /** The type-safety CPU tax applied to unikernel stacks (§4.1.3). */
    static double
    unikernelCpuFactor()
    {
        return sim::costs().safetyTaxFactor;
    }

    Cloud() : Cloud(Config{}) {}
    explicit Cloud(const Config &cfg);

    /** Shuts down every guest domain before members destruct. */
    ~Cloud();

    sim::Engine &engine() { return engine_; }

    /** The observability bundle the engine carries. */
    trace::Telemetry &telemetry() { return telemetry_; }
    trace::TraceRecorder &tracer() { return telemetry_.tracer; }
    trace::MetricsRegistry &metrics() { return telemetry_.metrics; }

    /**
     * Request-flow tracker. It records whenever the engine carries the
     * bundle (its series cost nothing until a flow begins, and flows
     * begin only in instrumented servers, through trace::LayerTrace).
     */
    trace::FlowTracker &flows() { return telemetry_.flows; }

    /**
     * The invariant checker, attached to the engine at construction but
     * disabled by default. Call `checker().enable()` *before* the first
     * startGuest()/addDisk() so shadow state sees every transition, or
     * set MIRAGE_CHECK=1 (Mode::Count: count + warn) / MIRAGE_CHECK=fatal
     * (panic on first violation) in the environment.
     */
    check::Checker &checker() { return checker_; }

    /**
     * The CPU/heap profiler. Per-domain accounting (run/steal, GC
     * pauses, ring HWMs — the `GET /top` snapshot) is always on; call
     * `profiler().enable()` to also record scope-tree attribution for
     * flamegraph export.
     */
    trace::Profiler &profiler() { return telemetry_.profiler; }

    /**
     * The boot-phase tracker: every toolstack boot
     * decomposes into named phase spans and `boot.<phase>_ns`
     * histograms, and the serving stack closes the loop with the
     * first-request phase.
     */
    trace::BootTracker &boots() { return telemetry_.boots; }

    /**
     * The SLO tracker. Declare targets with
     * `slo().setTarget("http", {...})`; every completed flow is scored
     * automatically, and burn-rate alerts are profiler alerts (so
     * MIRAGE_FLIGHT auto-dumps a post-mortem).
     */
    trace::SloTracker &slo() { return telemetry_.slo; }

    /**
     * The dom0 telemetry hub: per-domain and fleet-wide rollups
     * (request counts, histogram-merged latency quantiles, CPU, boot
     * phases, SLO state). Serve `telemetry()` with withTelemetry() to
     * expose `GET /fleet`.
     */
    trace::TelemetryHub &hub() { return telemetry_.hub; }

    /**
     * Arm the stall watchdog: if no request flow completes for
     * @p threshold of virtual time while flows are live, raise a
     * `stall` alert (which auto-dumps the flight recorder when
     * MIRAGE_FLIGHT is set). One-shot per stall: the alert re-arms on
     * the next flow begin.
     */
    void enableStallWatchdog(Duration threshold = Duration::millis(500));

    xen::Hypervisor &hypervisor() { return hv_; }
    xen::Bridge &bridge() { return bridge_; }
    xen::Netback &netback() { return netback_; }
    xen::Domain &dom0() { return dom0_; }
    xen::Toolstack &toolstack() { return toolstack_; }

    /** The engine under its old name. Kept for frozen perfbench;
     *  remove with ROADMAP item 7. */
    sim::Engine &shards() { return engine_; }

    // ---- Engine aggregates (watchdogs, /top) ------------------------
    /** Scheduled-but-undispatched events. */
    std::size_t pendingEvents() const { return engine_.pendingEvents(); }
    /** Cancelled-but-unreaped event ids. */
    std::size_t cancelledBacklog() const
    {
        return engine_.cancelledBacklog();
    }
    /** Events executed. */
    u64 eventsRun() const { return engine_.eventsRun(); }
    /** True when no events remain. */
    bool quiescent() const { return engine_.empty(); }

    /**
     * Provision a unikernel guest with a static address. Instant
     * (no boot-time modelling); use toolstack() when boot latency is
     * the experiment.
     */
    Guest &startUnikernel(const std::string &name, net::Ipv4Addr ip,
                          std::size_t memory_mib = 64,
                          double cpu_factor = -1);

    /** General guest provisioning (baseline models use this). */
    Guest &startGuest(const std::string &name, xen::GuestKind kind,
                      net::Ipv4Addr ip, std::size_t memory_mib,
                      unsigned vcpus, double cpu_factor);

    /**
     * Cold-boot a unikernel appliance through the toolstack: the boot
     * cost model applies (Figs 5/6), the boot tracker records the
     * phase breakdown, and @p on_ready fires at the service-ready
     * instant with the provisioned guest. Contrast startUnikernel(),
     * which provisions instantly for experiments where boot latency is
     * out of scope.
     */
    void bootUnikernel(
        const std::string &name, net::Ipv4Addr ip,
        std::size_t memory_mib = 64,
        std::function<void(Guest &, xen::BootBreakdown)> on_ready = {},
        double cpu_factor = -1);

    /** Attach a virtual disk served by a blkback in dom0. */
    xen::VirtualDisk &addDisk(const std::string &name, u64 sectors);
    xen::Blkback &blkbackFor(xen::VirtualDisk &disk);

    /** Run the simulation until quiescent. */
    void run() { engine_.run(); }
    void runFor(Duration d) { engine_.runFor(d); }

    const std::vector<std::unique_ptr<Guest>> &guests() const
    {
        return guests_;
    }

  private:
    void armStallCheck();
    void stallCheck();
    net::NetworkStack::Config netConfigFor(xen::GuestKind kind,
                                           net::Ipv4Addr ip,
                                           double cpu_factor) const;
    xen::MacBytes nextMac();

    // Observability precedes engine_ so every domain, dom0 included,
    // finds the bundle and the checker on its engine when it is built.
    trace::Telemetry telemetry_;
    check::Checker checker_{check::Checker::Mode::Count};
    sim::Engine engine_{&telemetry_, &checker_};
    Config cfg_;
    xen::Hypervisor hv_;
    xen::Bridge bridge_;
    xen::Domain &dom0_;
    xen::Netback netback_;
    xen::Toolstack toolstack_;
    std::vector<std::unique_ptr<Guest>> guests_;
    std::vector<std::unique_ptr<xen::VirtualDisk>> disks_;
    std::vector<std::unique_ptr<xen::Blkback>> blkbacks_;
    u32 next_mac_ = 1;

    // Stall-watchdog bookkeeping.
    bool stall_enabled_ = false;
    bool stall_armed_ = false;
    Duration stall_threshold_;
    u64 stall_last_completed_ = 0;
    i64 stall_progress_at_ns_ = 0;
};

} // namespace mirage::core

#endif // MIRAGE_CORE_CLOUD_H
