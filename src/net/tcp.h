/**
 * @file
 * Tcp: connection demux, listeners and active opens. Multiple protocol
 * stacks can coexist in one unikernel (§3.5) because all state hangs
 * off the owning NetworkStack instance.
 */

#ifndef MIRAGE_NET_TCP_H
#define MIRAGE_NET_TCP_H

#include <functional>
#include <map>

#include "net/ipv4.h"
#include "net/tcp_conn.h"

namespace mirage::net {

class NetworkStack;

class Tcp
{
  public:
    explicit Tcp(NetworkStack &stack);

    /** Breaks handler-capture cycles on still-open connections. */
    ~Tcp();

    void input(const Ipv4Packet &pkt);

    /** Bind an acceptor: new established connections are handed over. */
    Status listen(u16 port, std::function<void(TcpConnPtr)> on_accept);
    void unlisten(u16 port);

    /**
     * Active open to @p dst:@p port.
     * @return the in-progress connection (SynSent); callers may close()
     *         it before @p done runs to abort the handshake.
     */
    TcpConnPtr connect(Ipv4Addr dst, u16 port,
                       std::function<void(Result<TcpConnPtr>)> done);

    std::size_t connectionCount() const { return conns_.size(); }
    u64 resetsSent() const { return rsts_; }
    u64 checksumErrors() const { return checksum_errors_; }

  private:
    friend class TcpConnection;

    struct Key
    {
        u32 peerIp;
        u16 peerPort;
        u16 localPort;
        auto operator<=>(const Key &) const = default;
    };

    void remove(TcpConnection &conn);
    void connectionEstablished(TcpConnection &conn);
    void sendRstFor(const TcpSegment &seg, Ipv4Addr src);
    u16 allocEphemeral();

    NetworkStack &stack_;
    std::map<Key, TcpConnPtr> conns_;
    std::map<u16, std::function<void(TcpConnPtr)>> listeners_;
    u16 next_ephemeral_ = 49152;
    u64 rsts_ = 0;
    u64 checksum_errors_ = 0;
};

} // namespace mirage::net

#endif // MIRAGE_NET_TCP_H
