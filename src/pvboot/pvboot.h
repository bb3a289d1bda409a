/**
 * @file
 * PVBoot (§3.2): start-of-day support. Initialises one vCPU and the
 * Fig 2 single address space, provides the slab allocator and the I/O
 * page pool, and exposes domainpoll — the only blocking
 * primitive the runtime layer builds its event loop on.
 */

#ifndef MIRAGE_PVBOOT_PVBOOT_H
#define MIRAGE_PVBOOT_PVBOOT_H

#include <memory>

#include "hypervisor/xen.h"
#include "pvboot/io_pages.h"
#include "pvboot/layout.h"
#include "pvboot/slab.h"

namespace mirage::pvboot {

class PVBoot
{
  public:
    /**
     * Initialise start-of-day state for @p dom: builds the address
     * space (charging the PV page-table updates) and wires up the
     * allocators.
     */
    explicit PVBoot(xen::Domain &dom, LayoutSpec spec = LayoutSpec{});

    xen::Domain &domain() { return dom_; }
    sim::Engine &engine() { return dom_.engine(); }

    SlabAllocator &slab() { return slab_; }
    IoPagePool &ioPages() { return io_pages_; }

    /**
     * Block on a set of event channels and a timeout (§3.2). Thin
     * wrapper over the domain's sched_poll.
     */
    void
    domainpoll(const std::vector<xen::Port> &ports, Duration timeout,
               std::function<void(xen::Domain::WakeReason)> wake)
    {
        dom_.poll(ports, timeout, std::move(wake));
    }

    /**
     * Seal the address space (§2.3.3). Call after all memory has been
     * pre-allocated; fails if any page is writable and executable.
     */
    Status seal() { return dom_.hypervisor().seal(dom_); }

    /** Page-table updates applied while building the layout. */
    u64 layoutUpdates() const { return layout_updates_; }

  private:
    xen::Domain &dom_;
    LayoutSpec spec_;
    SlabAllocator slab_;
    IoPagePool io_pages_;
    u64 layout_updates_ = 0;
};

} // namespace mirage::pvboot

#endif // MIRAGE_PVBOOT_PVBOOT_H
