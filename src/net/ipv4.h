/**
 * @file
 * IPv4: header construction/validation, protocol demux, send-side
 * fragmentation and receive-side reassembly. Payloads move as scatter
 * lists of Cstruct views end to end — the stack never copies payload
 * bytes on the transmit path (§3.5.1).
 */

#ifndef MIRAGE_NET_IPV4_H
#define MIRAGE_NET_IPV4_H

#include <functional>
#include <map>
#include <vector>

#include "base/cstruct.h"
#include "base/time.h"
#include "drivers/netif.h"
#include "net/addresses.h"

namespace mirage::net {

class NetworkStack;

/** A received, validated IPv4 packet. */
struct Ipv4Packet
{
    Ipv4Addr src;
    Ipv4Addr dst;
    u8 proto;
    Cstruct payload;
};

/** IP protocol numbers used here. */
struct IpProto
{
    static constexpr u8 icmp = 1;
    static constexpr u8 tcp = 6;
    static constexpr u8 udp = 17;
};

class Ipv4
{
  public:
    static constexpr std::size_t headerBytes = 20; //!< no options
    static constexpr std::size_t mtu = 1500;

    explicit Ipv4(NetworkStack &stack);

    /** Handle an incoming IP payload of an Ethernet frame. */
    void input(const Cstruct &packet);

    /** Register the upper-layer handler for @p proto. */
    void setHandler(u8 proto, std::function<void(const Ipv4Packet &)> h);

    /**
     * Send @p payload_frags to @p dst with protocol @p proto,
     * fragmenting when the total exceeds the MTU. Resolution, header
     * page allocation and transmission are asynchronous. A non-zero
     * @p offload.gsoSize marks the datagram as a TSO chain: it rides
     * the ring whole and the *backend* segments it, so software
     * fragmentation is bypassed.
     */
    void send(Ipv4Addr dst, u8 proto, std::vector<Cstruct> payload_frags,
              drivers::TxOffload offload = {});

    u64 headerErrors() const { return header_errors_; }
    u64 fragmentsSent() const { return fragments_sent_; }
    u64 reassemblies() const { return reassemblies_; }

    /** Build the pseudo-header checksum seed for TCP/UDP. */
    static u32 pseudoHeaderSum(Ipv4Addr src, Ipv4Addr dst, u8 proto,
                               std::size_t length);

  private:
    struct ReassemblyKey
    {
        u32 src, dst;
        u16 id;
        u8 proto;
        auto operator<=>(const ReassemblyKey &) const = default;
    };

    struct ReassemblyState
    {
        /** offset -> fragment payload. */
        std::map<u16, Cstruct> frags;
        bool sawLast = false;
        std::size_t totalBytes = 0;
        TimePoint started;
    };

    void transmitResolved(const MacAddr &next_hop, Ipv4Addr dst, u8 proto,
                          const std::vector<Cstruct> &frags,
                          drivers::TxOffload offload);
    void emitOne(const MacAddr &next_hop, Ipv4Addr dst, u8 proto,
                 const std::vector<Cstruct> &frags, u16 ident,
                 u16 frag_offset_words, bool more_fragments,
                 drivers::TxOffload offload = {});
    void handleFragment(const Ipv4Packet &pkt, u16 ident, u16 offset,
                        bool more);
    Ipv4Addr nextHopFor(Ipv4Addr dst) const;

    NetworkStack &stack_;
    std::map<u8, std::function<void(const Ipv4Packet &)>> handlers_;
    std::map<ReassemblyKey, ReassemblyState> reassembly_;
    u16 next_ident_ = 1;
    u64 header_errors_ = 0;
    u64 fragments_sent_ = 0;
    u64 reassemblies_ = 0;
};

/** Slice a scatter list: bytes [offset, offset+len) without copying. */
std::vector<Cstruct> sliceFrags(const std::vector<Cstruct> &frags,
                                std::size_t offset, std::size_t len);

/** Total bytes across a scatter list. */
std::size_t fragsLength(const std::vector<Cstruct> &frags);

} // namespace mirage::net

#endif // MIRAGE_NET_IPV4_H
