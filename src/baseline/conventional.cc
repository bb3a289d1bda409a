#include "baseline/conventional.h"

namespace mirage::baseline {

void
SyscallLayer::chargeRecv(std::size_t bytes)
{
    const auto &c = sim::costs();
    dom_.vcpu().charge(c.syscall + c.copy(bytes));
}

void
SyscallLayer::chargeSend(std::size_t bytes)
{
    const auto &c = sim::costs();
    dom_.vcpu().charge(c.syscall + c.copy(bytes));
}

void
SyscallLayer::chargeProcessWake()
{
    dom_.vcpu().charge(sim::costs().processSwitch);
}

void
SyscallLayer::chargeSelect()
{
    dom_.vcpu().charge(sim::costs().selectDispatch);
}

void
userspaceUdpService(LinuxGuest &lg, u16 port,
                    std::function<Cstruct(const net::UdpDatagram &)>
                        handler)
{
    Status st = lg.stack().udp().listen(
        port,
        [&lg, handler = std::move(handler)](
            const net::UdpDatagram &dgram) {
            // Kernel hands the datagram to the waiting process.
            lg.sys.chargeSelect();
            lg.sys.chargeProcessWake();
            lg.sys.chargeRecv(dgram.payload.length());
            Cstruct reply = handler(dgram);
            if (reply.empty())
                return;
            lg.sys.chargeSend(reply.length());
            lg.stack().udp().sendTo(dgram.srcIp, dgram.srcPort,
                                    dgram.dstPort, {reply});
        });
    if (!st.ok())
        fatal("userspaceUdpService: %s", st.error().message.c_str());
}

} // namespace mirage::baseline
