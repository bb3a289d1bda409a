/**
 * @file
 * UDP with pseudo-header checksums and a per-port listener table.
 */

#ifndef MIRAGE_NET_UDP_H
#define MIRAGE_NET_UDP_H

#include <functional>
#include <map>

#include "base/cstruct.h"
#include "net/addresses.h"
#include "net/ipv4.h"

namespace mirage::net {

class NetworkStack;

/** One received datagram, payload as a zero-copy view. */
struct UdpDatagram
{
    Ipv4Addr srcIp;
    Ipv4Addr dstIp;
    u16 srcPort;
    u16 dstPort;
    Cstruct payload;
};

class Udp
{
  public:
    static constexpr std::size_t headerBytes = 8;

    explicit Udp(NetworkStack &stack);

    void input(const Ipv4Packet &pkt);

    /** Bind a handler to @p port. Fails when the port is taken. */
    Status listen(u16 port, std::function<void(const UdpDatagram &)> h);
    void unlisten(u16 port);

    /** Send @p payload_frags from @p src_port. */
    void sendTo(Ipv4Addr dst, u16 dst_port, u16 src_port,
                std::vector<Cstruct> payload_frags);

    u64 checksumErrors() const { return checksum_errors_; }
    u64 noListener() const { return no_listener_; }

  private:
    NetworkStack &stack_;
    std::map<u16, std::function<void(const UdpDatagram &)>> listeners_;
    u64 checksum_errors_ = 0;
    u64 no_listener_ = 0;
};

} // namespace mirage::net

#endif // MIRAGE_NET_UDP_H
