#include "hypervisor/domain.h"

#include "base/logging.h"
#include "check/check.h"
#include "hypervisor/xen.h"
#include "sim/cost_model.h"
#include "trace/profile.h"

namespace mirage::xen {

Domain::Domain(Hypervisor &hv, DomId id, std::string name, GuestKind kind,
               std::size_t memory_mib, unsigned vcpus)
    : hv_(hv), engine_(hv.engine()), id_(id),
      name_(std::move(name)), kind_(kind), memory_mib_(memory_mib),
      grants_(id), poll_trace_(engine_.telemetry(), name_, "/domainpoll")
{
    if (vcpus == 0)
        fatal("domain %s: at least one vCPU required", name_.c_str());
    grants_.bindEngine(&engine_);
    for (unsigned i = 0; i < vcpus; i++) {
        vcpus_.push_back(std::make_unique<sim::Cpu>(
            engine_, strprintf("%s/vcpu%u", name_.c_str(), i)));
    }
    if (auto *p = engine_.profiler()) {
        stats_ = &p->domain(name_);
        for (auto &cpu : vcpus_)
            cpu->setStats(stats_);
    }
}

void
Domain::addShutdownHook(std::function<void()> hook)
{
    shutdown_hooks_.push_back(std::move(hook));
}

void
Domain::shutdown()
{
    if (state_ == DomainState::Shutdown)
        return;
    state_ = DomainState::Shutdown;
    if (poll_timer_) {
        engine_.cancel(poll_timer_);
        poll_timer_ = 0;
    }
    poll_active_ = false;

    // Backends disconnect first (LIFO) so their grant unmaps land
    // before the leak audit below.
    while (!shutdown_hooks_.empty()) {
        auto hook = std::move(shutdown_hooks_.back());
        shutdown_hooks_.pop_back();
        hook();
    }
    hv_.events().closeAllFor(*this);
    if (auto *ck = engine_.checker(); ck && ck->enabled())
        ck->domainTeardown(id_);
    grants_.releaseAll();
}

Port
Domain::allocPort()
{
    ports_.push_back(PortState{true, false, nullptr});
    return Port(ports_.size() - 1);
}

void
Domain::setPortHandler(Port port, std::function<void()> handler)
{
    if (port >= ports_.size() || !ports_[port].valid)
        fatal("setPortHandler on invalid port %u", port);
    ports_[port].handler = std::move(handler);
}

bool
Domain::portPending(Port port) const
{
    return port < ports_.size() && ports_[port].pending;
}

void
Domain::clearPending(Port port)
{
    if (port < ports_.size())
        ports_[port].pending = false;
}

void
Domain::deliverEvent(Port port)
{
    if (state_ == DomainState::Shutdown)
        return;
    if (port >= ports_.size() || !ports_[port].valid)
        return; // event raced with channel close; dropped, as on Xen
    ports_[port].pending = true;
    if (ports_[port].handler)
        ports_[port].handler();
    if (poll_active_) {
        for (Port p : poll_ports_) {
            if (p == port) {
                finishPoll(WakeReason::Event);
                break;
            }
        }
    }
}

void
Domain::poll(const std::vector<Port> &ports, Duration timeout,
             std::function<void(WakeReason)> wake)
{
    if (poll_active_)
        fatal("domain %s: nested domainpoll", name_.c_str());
    hv_.chargeHypercall(*this, Hypercall::SchedPoll);
    poll_ports_ = ports;
    poll_wake_ = std::move(wake);
    poll_active_ = true;
    poll_started_ = engine_.now();
    state_ = DomainState::Blocked;

    // A pending watched port completes the poll immediately (next turn).
    for (Port p : poll_ports_) {
        if (portPending(p)) {
            poll_timer_ = engine_.after(
                Duration(0), [this] { finishPoll(WakeReason::Event); });
            return;
        }
    }
    poll_timer_ = engine_.after(
        timeout, [this] { finishPoll(WakeReason::Timeout); });
}

void
Domain::finishPoll(WakeReason reason)
{
    if (!poll_active_)
        return;
    poll_active_ = false;
    if (poll_timer_) {
        engine_.cancel(poll_timer_);
        poll_timer_ = 0;
    }
    if (stats_) {
        stats_->blocked_ns.inc(u64((engine_.now() - poll_started_).ns()));
        stats_->polls.inc();
    }
    if (auto *tr = poll_trace_.recorder()) {
        tr->span(trace::Cat::Hypervisor, "domainpoll", poll_started_,
                 engine_.now() - poll_started_, poll_trace_.track(),
                 trace::jsonObject("wake", reason == WakeReason::Event
                                               ? "event"
                                               : "timeout"));
    }
    state_ = DomainState::Running;
    auto wake = std::move(poll_wake_);
    poll_wake_ = nullptr;
    if (wake)
        wake(reason);
}

} // namespace mirage::xen
