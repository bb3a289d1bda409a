/**
 * @file
 * The toolstack / domain builder, with the boot cost model behind
 * Figures 5 and 6.
 *
 * The synchronous toolstack (stock xend) serialises domain construction
 * and adds a large fixed overhead per boot; the parallel toolstack (the
 * paper's modification) removes the serialisation so per-VM startup time
 * can be isolated. Build cost scales with memory size (page scrubbing
 * and page-table construction); guest initialisation cost depends on the
 * guest flavour.
 */

#ifndef MIRAGE_HYPERVISOR_BUILDER_H
#define MIRAGE_HYPERVISOR_BUILDER_H

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/time.h"
#include "hypervisor/xen.h"

namespace mirage::xen {

/** What to boot. */
struct BootSpec
{
    std::string name;
    GuestKind kind = GuestKind::Unikernel;
    std::size_t memoryMib = 64;
    unsigned vcpus = 1;
    /** Guest entry point, run when boot completes ("first UDP packet"
     *  moment in the paper's methodology). May be null for timing-only
     *  experiments. */
    std::function<void(Domain &)> entry;
};

/** Where the boot time went; Figs 5/6 plot different subsets. */
struct BootBreakdown
{
    Duration toolstack; //!< toolstack queueing + serialisation overhead
    Duration build;     //!< hypervisor domain construction
    Duration guestInit; //!< kernel entry to service-ready

    /**
     * guestInit (and the coarse fields above) decomposed into named,
     * consecutive boot phases — toolstack/build plus the kind-specific
     * subdivision of guest init (layout, page_setup, device_connect,
     * stack_up for unikernels; kernel_boot/services/app_start for the
     * Linux flavours). Invariant: the durations sum exactly to total(),
     * so per-phase bench output attributes the whole boot.
     */
    std::vector<std::pair<const char *, Duration>> phases;

    Duration
    total() const
    {
        return toolstack + build + guestInit;
    }

    /** Sum of the named phases (== total() by construction). */
    Duration
    phaseSum() const
    {
        Duration d(0);
        for (const auto &[name, dur] : phases)
            d = d + dur;
        return d;
    }
};

class Toolstack
{
  public:
    enum class Mode {
        Synchronous, //!< stock: one build at a time, large fixed cost
        Parallel     //!< the paper's patch: concurrent builds
    };

    Toolstack(Hypervisor &hv, Mode mode);

    /**
     * Begin booting @p spec. @p on_ready fires at the instant the guest
     * is ready to serve (after which spec.entry has been called).
     */
    void boot(BootSpec spec,
              std::function<void(Domain &, BootBreakdown)> on_ready);

    /** Pure cost queries, used by tests pinning the model's shape. */
    static Duration buildCost(std::size_t memory_mib);
    static Duration guestInitCost(GuestKind kind, std::size_t memory_mib);

  private:
    Hypervisor &hv_;
    Mode mode_;
    TimePoint toolstack_free_at_;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_BUILDER_H
