/**
 * @file
 * The conventional-OS guest model. A LinuxGuest runs the *same*
 * protocol stack as a unikernel (at C-speed, cpuFactor 1.0), but its
 * applications live behind a modelled kernel/userspace boundary: every
 * socket operation charges a syscall crossing and a data copy, and
 * handing a request to a userspace process charges a context switch.
 * These are precisely the structural overheads the unikernel
 * architecture deletes, so every baseline comparison in the benches is
 * the same algorithm under a different structure.
 */

#ifndef MIRAGE_BASELINE_CONVENTIONAL_H
#define MIRAGE_BASELINE_CONVENTIONAL_H

#include "core/cloud.h"

namespace mirage::baseline {

/** Kernel/userspace boundary accounting for one guest. */
class SyscallLayer
{
  public:
    explicit SyscallLayer(xen::Domain &dom) : dom_(dom) {}

    /** recv(2)-style: syscall + copy kernel→user. */
    void chargeRecv(std::size_t bytes);
    /** send(2)-style: syscall + copy user→kernel. */
    void chargeSend(std::size_t bytes);
    /** Waking and dispatching a userspace process/thread. */
    void chargeProcessWake();
    /** One select/epoll dispatch round. */
    void chargeSelect();

  private:
    xen::Domain &dom_;
};

/**
 * A provisioned Linux-like guest: full stack at cpuFactor 1.0 plus the
 * syscall layer its "userspace" applications must cross.
 */
struct LinuxGuest
{
    core::Guest &guest;
    SyscallLayer sys;

    explicit LinuxGuest(core::Guest &g) : guest(g), sys(g.dom) {}

    net::NetworkStack &stack() { return guest.stack; }
    xen::Domain &dom() { return guest.dom; }
};

/**
 * Userspace UDP echo-style service: wraps a datagram handler with the
 * boundary costs (recv copy in, process wake, send copy out).
 */
void userspaceUdpService(
    LinuxGuest &lg, u16 port,
    std::function<Cstruct(const net::UdpDatagram &)> handler);

} // namespace mirage::baseline

#endif // MIRAGE_BASELINE_CONVENTIONAL_H
