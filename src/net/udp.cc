#include "net/udp.h"

#include "base/checksum.h"
#include "net/stack.h"

namespace mirage::net {

Udp::Udp(NetworkStack &stack) : stack_(stack) {}

Status
Udp::listen(u16 port, std::function<void(const UdpDatagram &)> h)
{
    auto [it, inserted] = listeners_.emplace(port, std::move(h));
    (void)it;
    if (!inserted)
        return stateError(strprintf("UDP port %u already bound", port));
    return Status::success();
}

void
Udp::unlisten(u16 port)
{
    listeners_.erase(port);
}

void
Udp::input(const Ipv4Packet &pkt)
{
    const Cstruct &p = pkt.payload;
    if (p.length() < headerBytes)
        return;
    u16 len = p.getBe16(4);
    if (len < headerBytes || len > p.length())
        return;
    u16 csum = p.getBe16(6);
    if (csum != 0) {
        ChecksumAccumulator acc;
        u32 pseudo = Ipv4::pseudoHeaderSum(pkt.src, pkt.dst,
                                           IpProto::udp, len);
        acc.addWord(u16(pseudo >> 16));
        acc.addWord(u16(pseudo & 0xffff));
        acc.add(p.sub(0, len));
        if (acc.finish() != 0) {
            checksum_errors_++;
            return;
        }
        stack_.chargeChecksum(len);
    }
    u16 dst_port = p.getBe16(2);
    auto it = listeners_.find(dst_port);
    if (it == listeners_.end()) {
        no_listener_++;
        return;
    }
    UdpDatagram dgram{pkt.src, pkt.dst, p.getBe16(0), dst_port,
                      p.sub(headerBytes, len - headerBytes)};
    it->second(dgram);
}

void
Udp::sendTo(Ipv4Addr dst, u16 dst_port, u16 src_port,
            std::vector<Cstruct> payload_frags)
{
    auto hdr = stack_.allocHeader(headerBytes);
    if (!hdr.ok())
        return;
    Cstruct udp = hdr.value().shift(EthFrame::headerBytes);
    std::size_t payload_len = fragsLength(payload_frags);
    u16 len = u16(headerBytes + payload_len);
    udp.setBe16(0, src_port);
    udp.setBe16(2, dst_port);
    udp.setBe16(4, len);
    udp.setBe16(6, 0);

    ChecksumAccumulator acc;
    u32 pseudo =
        Ipv4::pseudoHeaderSum(stack_.ip(), dst, IpProto::udp, len);
    acc.addWord(u16(pseudo >> 16));
    acc.addWord(u16(pseudo & 0xffff));
    acc.add(udp);
    for (const auto &f : payload_frags)
        acc.add(f);
    u16 csum = acc.finish();
    udp.setBe16(6, csum == 0 ? 0xffff : csum);
    stack_.chargeChecksum(len);

    std::vector<Cstruct> frags;
    frags.push_back(udp);
    for (auto &f : payload_frags)
        frags.push_back(std::move(f));
    stack_.ipv4().send(dst, IpProto::udp, std::move(frags));
}

} // namespace mirage::net
