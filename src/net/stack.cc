#include "net/stack.h"

#include "sim/cost_model.h"
#include "trace/metrics.h"

namespace mirage::net {

NetworkStack::NetworkStack(drivers::Netif &netif, rt::Scheduler &sched,
                           Config config)
    : netif_(netif), sched_(sched), config_(config), arp_(*this),
      ipv4_(*this), icmp_(*this), udp_(*this), tcp_(*this),
      tx_bytes_(trace::total(sched.engine().metrics(), "net.tx.bytes")),
      tx_copy_bytes_(
          trace::total(sched.engine().metrics(), "net.tx.copy_bytes"))
{
    ipv4_.setHandler(IpProto::icmp,
                     [this](const Ipv4Packet &p) { icmp_.input(p); });
    ipv4_.setHandler(IpProto::udp,
                     [this](const Ipv4Packet &p) { udp_.input(p); });
    ipv4_.setHandler(IpProto::tcp,
                     [this](const Ipv4Packet &p) { tcp_.input(p); });
    netif_.onFrame([this](Cstruct frame) { frameInput(std::move(frame)); });
}

void
NetworkStack::configure(Ipv4Addr ip, Ipv4Addr netmask, Ipv4Addr gateway)
{
    config_.ip = ip;
    config_.netmask = netmask;
    config_.gateway = gateway;
}

Result<Cstruct>
NetworkStack::allocHeader(std::size_t bytes_after_eth)
{
    auto page = netif_.allocTxPage();
    if (!page.ok())
        return page.error();
    return page.value().sub(0, EthFrame::headerBytes + bytes_after_eth);
}

void
NetworkStack::transmit(const MacAddr &dst, EtherType type,
                       std::vector<Cstruct> frags,
                       drivers::TxOffload offload)
{
    writeEthHeader(frags[0], dst, mac(), type);
    std::size_t len = fragsLength(frags);
    tx_bytes_.inc(len);
    // The vCPU paces transmission: the frame reaches the driver only
    // once the per-packet stack work has had its turn on the CPU —
    // this is what makes throughput saturate with CPU (Figs 8, 12).
    Duration cost = packetCost();
    if (fragsLength(frags) >= sim::costs().dataPacketThreshold)
        cost += config_.txOverheadPerPacket;
    domain().vcpu().submit(
        cost,
        [this, offload, frags = std::move(frags)] {
        netif_.writeFrameV(frags, offload);
        },
        "net.tx", trace::Cat::Net);
}

void
NetworkStack::noteTxCopy(std::size_t bytes)
{
    tx_copy_bytes_.inc(bytes);
    // The copy itself costs CPU — same rate the backend pays.
    domain().vcpu().charge(sim::costs().copy(bytes), "net.tx.copy",
                           trace::Cat::Net);
}

Duration
NetworkStack::packetCost() const
{
    return Duration(i64(double(sim::costs().stackPerPacket.ns()) *
                        config_.cpuFactor));
}

void
NetworkStack::chargeChecksum(std::size_t bytes)
{
    Duration cost = Duration(i64(double(sim::costs().checksum(bytes).ns()) *
                                 config_.cpuFactor));
    domain().vcpu().charge(cost, "net.checksum", trace::Cat::Net);
}

void
NetworkStack::frameInput(Cstruct frame)
{
    Duration cost = packetCost();
    if (frame.length() >= sim::costs().dataPacketThreshold)
        cost += config_.rxOverheadPerPacket;
    domain().vcpu().submit(
        cost,
        [this, frame = std::move(frame)] {
        auto parsed = EthFrame::parse(frame);
        if (!parsed.ok())
            return;
        const EthFrame &eth = parsed.value();
        if (!eth.dst.isBroadcast() && eth.dst != mac())
            return;
        switch (EtherType(eth.etherType)) {
          case EtherType::Arp:
            arp_.input(eth.payload);
            break;
          case EtherType::Ipv4:
            ipv4_.input(eth.payload);
            break;
          default:
            break;
        }
        },
        "net.rx", trace::Cat::Net);
}

} // namespace mirage::net
