#include "hypervisor/builder.h"

#include <algorithm>

#include "sim/cost_model.h"
#include "sim/engine.h"
#include "trace/boot.h"

namespace mirage::xen {

namespace {

/**
 * Decompose @p init into the kind-specific named phases. The split is
 * structural, not calibrated: the per-MiB extent-reservation work is
 * all page-table layout, and the fixed unikernel init divides between
 * layout (start-of-day PT construction), page pools, device ring /
 * grant / evtchn handshakes, and network-stack bring-up. The remainder
 * lands in the last phase so the phases sum to @p init *exactly* —
 * tests and the boot benches gate on that.
 */
void
appendInitPhases(std::vector<std::pair<const char *, Duration>> &phases,
                 GuestKind kind, std::size_t memory_mib, Duration init)
{
    const auto &c = sim::costs();
    switch (kind) {
      case GuestKind::Unikernel: {
        Duration layout = c.unikernelInitPerMiB * i64(memory_mib) +
                          Duration(c.unikernelInit.ns() * 35 / 100);
        Duration page_setup = Duration(c.unikernelInit.ns() * 15 / 100);
        Duration device_connect =
            Duration(c.unikernelInit.ns() * 30 / 100);
        Duration stack_up = init - layout - page_setup - device_connect;
        phases.emplace_back("layout", layout);
        phases.emplace_back("page_setup", page_setup);
        phases.emplace_back("device_connect", device_connect);
        phases.emplace_back("stack_up", stack_up);
        break;
      }
      case GuestKind::LinuxMinimal:
        phases.emplace_back("kernel_boot", init);
        break;
      case GuestKind::LinuxDebianApache: {
        Duration kernel = c.linuxKernelBoot +
                          c.linuxKernelBootPerMiB * i64(memory_mib);
        phases.emplace_back("kernel_boot", kernel);
        phases.emplace_back("services", c.debianServicesBoot);
        phases.emplace_back("app_start",
                            init - kernel - c.debianServicesBoot);
        break;
      }
    }
}

} // namespace

Toolstack::Toolstack(Hypervisor &hv, Mode mode) : hv_(hv), mode_(mode) {}

Duration
Toolstack::buildCost(std::size_t memory_mib)
{
    const auto &c = sim::costs();
    return c.domainBuildFixed + c.domainBuildPerMiB * i64(memory_mib);
}

Duration
Toolstack::guestInitCost(GuestKind kind, std::size_t memory_mib)
{
    const auto &c = sim::costs();
    switch (kind) {
      case GuestKind::Unikernel:
        return c.unikernelInit + c.unikernelInitPerMiB * i64(memory_mib);
      case GuestKind::LinuxMinimal:
        return c.linuxKernelBoot +
               c.linuxKernelBootPerMiB * i64(memory_mib);
      case GuestKind::LinuxDebianApache:
        return c.linuxKernelBoot +
               c.linuxKernelBootPerMiB * i64(memory_mib) +
               c.debianServicesBoot + c.apacheStart;
    }
    return Duration(0);
}

void
Toolstack::boot(BootSpec spec,
                std::function<void(Domain &, BootBreakdown)> on_ready)
{
    sim::Engine &engine = hv_.engine();
    const auto &c = sim::costs();

    Duration build = buildCost(spec.memoryMib);
    Duration init = guestInitCost(spec.kind, spec.memoryMib);

    TimePoint submit = engine.now();
    TimePoint build_start;
    Duration toolstack_cost;
    if (mode_ == Mode::Synchronous) {
        // xend handles one request at a time; later requests queue.
        build_start = std::max(submit, toolstack_free_at_) +
                      c.toolstackSync;
        toolstack_free_at_ = build_start + build;
        toolstack_cost = build_start - submit;
    } else {
        // Parallel toolstack: small fixed dispatch cost, no queueing.
        toolstack_cost = Duration::millis(5);
        build_start = submit + toolstack_cost;
    }

    Domain &dom = hv_.createDomain(spec.name, spec.kind, spec.memoryMib,
                                   spec.vcpus);
    BootBreakdown breakdown{toolstack_cost, build, init, {}};
    breakdown.phases.emplace_back("toolstack", toolstack_cost);
    breakdown.phases.emplace_back("build", build);
    appendInitPhases(breakdown.phases, spec.kind, spec.memoryMib, init);

    // The cost schedule is known up front, so the phase spans are
    // reported now with future timestamps — the recorder sorts by ts on
    // export, and the tracker's histograms only need durations.
    trace::BootTracker *boots = engine.boots();
    trace::BootId bid = boots ? boots->begin(spec.name, submit) : 0;
    if (bid) {
        TimePoint t = submit;
        for (const auto &[pname, dur] : breakdown.phases) {
            boots->phase(bid, pname, t, t + dur);
            t = t + dur;
        }
    }

    TimePoint ready = build_start + build + init;
    engine.at(ready, [&dom, bid, breakdown = std::move(breakdown),
                      entry = std::move(spec.entry),
                      cb = std::move(on_ready)] {
        dom.setState(DomainState::Running);
        trace::BootTracker *boots = dom.engine().boots();
        {
            // Structural bring-up (PVBoot, driver connects) runs here
            // in zero virtual time; the ambient id lets it annotate
            // the phases with op counts.
            trace::BootScope scope(boots, bid);
            if (entry)
                entry(dom);
        }
        if (boots && bid)
            boots->ready(bid, dom.engine().now());
        if (cb)
            cb(dom, breakdown);
    });
}

} // namespace mirage::xen
