#include "net/ipv4.h"

#include "base/checksum.h"
#include "base/logging.h"
#include "net/stack.h"

namespace mirage::net {

std::size_t
fragsLength(const std::vector<Cstruct> &frags)
{
    std::size_t n = 0;
    for (const auto &f : frags)
        n += f.length();
    return n;
}

std::vector<Cstruct>
sliceFrags(const std::vector<Cstruct> &frags, std::size_t offset,
           std::size_t len)
{
    std::vector<Cstruct> out;
    std::size_t skipped = 0;
    for (const auto &f : frags) {
        if (len == 0)
            break;
        if (skipped + f.length() <= offset) {
            skipped += f.length();
            continue;
        }
        std::size_t start = offset > skipped ? offset - skipped : 0;
        std::size_t take = std::min(f.length() - start, len);
        out.push_back(f.sub(start, take));
        len -= take;
        skipped += f.length();
        offset = skipped; // subsequent fragments start at their head
    }
    return out;
}

Ipv4::Ipv4(NetworkStack &stack) : stack_(stack) {}

void
Ipv4::setHandler(u8 proto, std::function<void(const Ipv4Packet &)> h)
{
    handlers_[proto] = std::move(h);
}

u32
Ipv4::pseudoHeaderSum(Ipv4Addr src, Ipv4Addr dst, u8 proto,
                      std::size_t length)
{
    u32 sum = 0;
    sum += src.raw() >> 16;
    sum += src.raw() & 0xffff;
    sum += dst.raw() >> 16;
    sum += dst.raw() & 0xffff;
    sum += proto;
    sum += u32(length);
    return sum;
}

Ipv4Addr
Ipv4::nextHopFor(Ipv4Addr dst) const
{
    if (dst.isBroadcast() ||
        dst.inSubnet(stack_.ip(), stack_.netmask()))
        return dst;
    return stack_.gateway();
}

void
Ipv4::send(Ipv4Addr dst, u8 proto, std::vector<Cstruct> payload_frags,
           drivers::TxOffload offload)
{
    if (dst.isBroadcast()) {
        emitOne(MacAddr::broadcast(), dst, proto, payload_frags,
                next_ident_++, 0, false, offload);
        return;
    }
    Ipv4Addr hop = nextHopFor(dst);
    stack_.arp().resolve(
        hop, [this, dst, proto, offload,
              frags = std::move(payload_frags)](Result<MacAddr> mac) {
            if (!mac.ok()) {
                warn("ipv4: cannot resolve next hop for %s",
                     dst.toString().c_str());
                return;
            }
            transmitResolved(mac.value(), dst, proto, frags, offload);
        });
}

void
Ipv4::transmitResolved(const MacAddr &next_hop, Ipv4Addr dst, u8 proto,
                       const std::vector<Cstruct> &frags,
                       drivers::TxOffload offload)
{
    std::size_t total = fragsLength(frags);
    std::size_t max_payload = (mtu - headerBytes) & ~std::size_t(7);
    u16 ident = next_ident_++;
    if (offload.gsoSize > 0) {
        // TSO chain: the backend segments it against gsoSize, so it
        // bypasses software fragmentation regardless of length.
        emitOne(next_hop, dst, proto, frags, ident, 0, false, offload);
        return;
    }
    if (total <= mtu - headerBytes) {
        emitOne(next_hop, dst, proto, frags, ident, 0, false, offload);
        return;
    }
    std::size_t offset = 0;
    while (offset < total) {
        std::size_t take = std::min(max_payload, total - offset);
        bool more = offset + take < total;
        emitOne(next_hop, dst, proto, sliceFrags(frags, offset, take),
                ident, u16(offset / 8), more);
        offset += take;
    }
}

void
Ipv4::emitOne(const MacAddr &next_hop, Ipv4Addr dst, u8 proto,
              const std::vector<Cstruct> &frags, u16 ident,
              u16 frag_offset_words, bool more_fragments,
              drivers::TxOffload offload)
{
    auto hdr_page = stack_.allocHeader(headerBytes);
    if (!hdr_page.ok())
        return;
    Cstruct ip = hdr_page.value().shift(EthFrame::headerBytes);
    std::size_t payload_len = fragsLength(frags);
    ip.setU8(0, 0x45); // version 4, IHL 5
    ip.setU8(1, 0);
    ip.setBe16(2, u16(headerBytes + payload_len));
    ip.setBe16(4, ident);
    u16 flags_frag = u16((more_fragments ? 0x2000 : 0) |
                         (frag_offset_words & 0x1fff));
    ip.setBe16(6, flags_frag);
    ip.setU8(8, 64); // TTL
    ip.setU8(9, proto);
    ip.setBe16(10, 0);
    ip.setBe32(12, stack_.ip().raw());
    ip.setBe32(16, dst.raw());
    ip.setBe16(10, internetChecksum(ip.sub(0, headerBytes)));
    stack_.chargeChecksum(headerBytes);

    std::vector<Cstruct> out;
    out.push_back(hdr_page.value());
    for (const auto &f : frags)
        out.push_back(f);
    if (more_fragments || frag_offset_words > 0)
        fragments_sent_++;
    stack_.transmit(next_hop, EtherType::Ipv4, std::move(out), offload);
}

void
Ipv4::input(const Cstruct &packet)
{
    if (packet.length() < headerBytes) {
        header_errors_++;
        return;
    }
    u8 vihl = packet.getU8(0);
    if ((vihl >> 4) != 4) {
        header_errors_++;
        return;
    }
    std::size_t ihl = std::size_t(vihl & 0xf) * 4;
    if (ihl < headerBytes || packet.length() < ihl) {
        header_errors_++;
        return;
    }
    if (internetChecksum(packet.sub(0, ihl)) != 0) {
        header_errors_++;
        return;
    }
    stack_.chargeChecksum(ihl);
    u16 total_len = packet.getBe16(2);
    if (total_len < ihl || total_len > packet.length()) {
        header_errors_++;
        return;
    }
    Ipv4Packet pkt;
    pkt.src = Ipv4Addr(packet.getBe32(12));
    pkt.dst = Ipv4Addr(packet.getBe32(16));
    pkt.proto = packet.getU8(9);
    pkt.payload = packet.sub(ihl, total_len - ihl);

    if (!pkt.dst.isBroadcast() && pkt.dst != stack_.ip() &&
        !stack_.ip().isAny())
        return; // not for us

    u16 flags_frag = packet.getBe16(6);
    bool more = (flags_frag & 0x2000) != 0;
    u16 offset = flags_frag & 0x1fff;
    if (more || offset > 0) {
        handleFragment(pkt, packet.getBe16(4), offset, more);
        return;
    }
    auto it = handlers_.find(pkt.proto);
    if (it != handlers_.end())
        it->second(pkt);
}

void
Ipv4::handleFragment(const Ipv4Packet &pkt, u16 ident, u16 offset,
                     bool more)
{
    ReassemblyKey key{pkt.src.raw(), pkt.dst.raw(), ident, pkt.proto};
    ReassemblyState &st = reassembly_[key];
    if (st.frags.empty())
        st.started = stack_.scheduler().engine().now();
    st.frags[offset] = pkt.payload;
    st.totalBytes += pkt.payload.length();
    if (!more)
        st.sawLast = true;

    // Check contiguity from zero.
    if (!st.sawLast)
        return;
    std::size_t expect = 0;
    for (const auto &[off, frag] : st.frags) {
        if (std::size_t(off) * 8 != expect)
            return; // hole remains
        expect += frag.length();
    }
    // Complete: assemble into one buffer (reassembly inherently
    // buffers; this is the one copy on this path).
    Cstruct whole = Cstruct::create(expect);
    std::size_t at = 0;
    for (const auto &[off, frag] : st.frags) {
        whole.blitFrom(frag, 0, at, frag.length());
        at += frag.length();
    }
    Ipv4Packet out = pkt;
    out.payload = whole;
    reassembly_.erase(key);
    reassemblies_++;
    auto it = handlers_.find(out.proto);
    if (it != handlers_.end())
        it->second(out);
}

} // namespace mirage::net
