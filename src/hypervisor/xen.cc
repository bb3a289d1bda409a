#include "hypervisor/xen.h"

#include <numeric>

#include "base/logging.h"

namespace mirage::xen {

Hypervisor::Hypervisor(sim::Engine &engine)
    : engine_(engine), events_(engine)
{
}

Hypervisor::~Hypervisor() = default;

Domain &
Hypervisor::createDomain(const std::string &name, GuestKind kind,
                         std::size_t memory_mib, unsigned vcpus,
                         sim::Engine *home)
{
    std::lock_guard<std::mutex> lk(domains_mu_);
    // mirage-lint: allow(model-mutex-order) searched by id, never
    // walked to schedule anything
    domains_.push_back(std::make_unique<Domain>(*this, next_domid_++, name,
                                                kind, memory_mib, vcpus,
                                                home));
    return *domains_.back();
}

Domain *
Hypervisor::domainById(DomId id)
{
    std::lock_guard<std::mutex> lk(domains_mu_);
    for (auto &d : domains_)
        if (d->id() == id)
            return d.get();
    return nullptr;
}

Result<Cstruct>
Hypervisor::grantMap(Domain &mapper, Domain &granter, GrantRef ref,
                     bool write)
{
    chargeHypercall(mapper, Hypercall::GrantMap);
    mapper.vcpu().charge(sim::costs().grantMap, "grant.map",
                         trace::Cat::Hypervisor);
    return granter.grantTable().mapFor(mapper.id(), ref, write);
}

Status
Hypervisor::grantUnmap(Domain &mapper, Domain &granter, GrantRef ref)
{
    chargeHypercall(mapper, Hypercall::GrantUnmap);
    return granter.grantTable().unmapFor(mapper.id(), ref);
}

Status
Hypervisor::seal(Domain &dom)
{
    chargeHypercall(dom, Hypercall::Seal);
    return dom.pageTables().seal();
}

void
Hypervisor::chargeHypercall(Domain &dom, Hypercall call)
{
    counts_[std::size_t(call)].fetch_add(1, std::memory_order_relaxed);
    dom.vcpu().charge(sim::costs().hypercall, "hypercall",
                      trace::Cat::Hypervisor);
}

u64
Hypervisor::hypercallCount(Hypercall call) const
{
    return counts_[std::size_t(call)].load(std::memory_order_relaxed);
}

u64
Hypervisor::totalHypercalls() const
{
    u64 n = 0;
    for (const auto &c : counts_)
        n += c.load(std::memory_order_relaxed);
    return n;
}

} // namespace mirage::xen
