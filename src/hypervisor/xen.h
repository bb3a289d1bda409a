/**
 * @file
 * Hypervisor — the root object of the simulated Xen host: domains, the
 * event-channel hub, cross-domain grant mapping, and the hypercall
 * surface including the paper's `seal` extension (§2.3.3).
 */

#ifndef MIRAGE_HYPERVISOR_XEN_H
#define MIRAGE_HYPERVISOR_XEN_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "hypervisor/domain.h"
#include "hypervisor/event_channel.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace mirage::xen {

/** Hypercalls the simulator distinguishes for accounting. */
enum class Hypercall {
    EventNotify,
    GrantMap,
    GrantUnmap,
    MmuUpdate,
    Seal,
    SchedPoll,
    DomCtl,
    NumHypercalls
};

class Hypervisor
{
  public:
    explicit Hypervisor(sim::Engine &engine);
    ~Hypervisor();

    sim::Engine &engine() { return engine_; }
    EventChannelHub &events() { return events_; }

    /** Create a domain in the Building state. */
    Domain &createDomain(const std::string &name, GuestKind kind,
                         std::size_t memory_mib, unsigned vcpus = 1);

    Domain *domainById(DomId id);
    const std::vector<std::unique_ptr<Domain>> &domains() const
    {
        return domains_;
    }

    /**
     * Map a grant issued by @p granter for @p mapper. Charges the
     * hypercall + map cost on the mapper's vCPU.
     */
    Result<Cstruct> grantMap(Domain &mapper, Domain &granter, GrantRef ref,
                             bool write);

    Status grantUnmap(Domain &mapper, Domain &granter, GrantRef ref);

    /**
     * The seal hypercall (the paper's <50-line Xen 4.1 patch): W^X
     * check, then freeze @p dom's page tables.
     */
    Status seal(Domain &dom);

    /** Record and charge one hypercall on @p dom's first vCPU. */
    void chargeHypercall(Domain &dom, Hypercall call);

    u64 hypercallCount(Hypercall call) const;
    u64 totalHypercalls() const;

  private:
    sim::Engine &engine_;
    EventChannelHub events_;
    std::vector<std::unique_ptr<Domain>> domains_;
    DomId next_domid_ = 1;
    std::array<u64, std::size_t(Hypercall::NumHypercalls)> counts_{};
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_XEN_H
