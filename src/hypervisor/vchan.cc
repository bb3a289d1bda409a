#include "hypervisor/vchan.h"

#include <algorithm>
#include <cstring>

#include "hypervisor/xen.h"
#include "sim/cost_model.h"

namespace mirage::xen {

std::unique_ptr<Vchan>
Vchan::connect(Domain &a, Domain &b)
{
    return std::unique_ptr<Vchan>(new Vchan(a, b));
}

Vchan::Vchan(Domain &a, Domain &b) : a_(a), b_(b)
{
    end_a_.reset(new VchanEndpoint(*this, a, true));
    end_b_.reset(new VchanEndpoint(*this, b, false));
    auto [pa, pb] = a.hypervisor().events().connect(a, b);
    port_a_ = pa;
    port_b_ = pb;
    a.setPortHandler(pa, [this] {
        a_.clearPending(port_a_);
        if (end_a_->space_cb_ && a_to_b_.space() > 0)
            end_a_->space_cb_();
    });
    b.setPortHandler(pb, [this] {
        b_.clearPending(port_b_);
        if (end_b_->space_cb_ && b_to_a_.space() > 0)
            end_b_->space_cb_();
    });
}

void
Vchan::notifyPeer(bool from_a, bool)
{
    notifies_++;
    if (from_a)
        a_.hypervisor().events().notify(a_, port_a_);
    else
        b_.hypervisor().events().notify(b_, port_b_);
}

std::size_t
VchanEndpoint::readAvailable() const
{
    return owner_.txRing(!is_a_).used();
}

std::size_t
VchanEndpoint::write(const Cstruct &data)
{
    auto &ring = owner_.txRing(is_a_);
    std::size_t n = std::min(data.length(), ring.space());
    if (n == 0)
        return 0;
    bool was_empty = ring.used() == 0;
    for (std::size_t i = 0; i < n; i++) {
        ring.buf[std::size_t(ring.prod + i) % Vchan::ringBytes] =
            data.getU8(i);
    }
    ring.prod += n;
    copyStats().copies++;
    copyStats().bytesCopied += n;
    dom_.vcpu().charge(sim::costs().copy(n), "vchan.copy",
                       trace::Cat::Hypervisor);
    // Suppression: streaming peers poll the counters; only an
    // empty->nonempty transition needs an event (paper footnote 4).
    if (was_empty)
        owner_.notifyPeer(is_a_, true);
    return n;
}

Cstruct
VchanEndpoint::read(std::size_t max)
{
    auto &ring = owner_.txRing(!is_a_);
    std::size_t n = std::min(max, ring.used());
    Cstruct out = Cstruct::create(n);
    bool was_full = ring.space() == 0;
    for (std::size_t i = 0; i < n; i++) {
        out.setU8(i,
                  ring.buf[std::size_t(ring.cons + i) % Vchan::ringBytes]);
    }
    ring.cons += n;
    copyStats().copies++;
    copyStats().bytesCopied += n;
    dom_.vcpu().charge(sim::costs().copy(n), "vchan.copy",
                       trace::Cat::Hypervisor);
    if (was_full && n > 0)
        owner_.notifyPeer(is_a_, false);
    return out;
}

void
VchanEndpoint::onSpaceAvailable(std::function<void()> fn)
{
    space_cb_ = std::move(fn);
}

} // namespace mirage::xen
