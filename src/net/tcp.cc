#include "net/tcp.h"

#include "base/logging.h"
#include "net/stack.h"

namespace mirage::net {

Tcp::Tcp(NetworkStack &stack) : stack_(stack) {}

Status
Tcp::listen(u16 port, std::function<void(TcpConnPtr)> on_accept)
{
    auto [it, inserted] = listeners_.emplace(port, std::move(on_accept));
    (void)it;
    if (!inserted)
        return stateError(strprintf("TCP port %u already bound", port));
    return Status::success();
}

void
Tcp::unlisten(u16 port)
{
    listeners_.erase(port);
}

u16
Tcp::allocEphemeral()
{
    for (int tries = 0; tries < 16384; tries++) {
        u16 port = next_ephemeral_;
        next_ephemeral_ =
            next_ephemeral_ == 65535 ? 49152 : u16(next_ephemeral_ + 1);
        bool taken = false;
        for (const auto &[key, conn] : conns_) {
            if (key.localPort == port) {
                taken = true;
                break;
            }
        }
        if (!taken)
            return port;
    }
    fatal("TCP: ephemeral ports exhausted");
}

TcpConnPtr
Tcp::connect(Ipv4Addr dst, u16 port,
             std::function<void(Result<TcpConnPtr>)> done)
{
    u16 local = allocEphemeral();
    auto conn = TcpConnPtr(
        new TcpConnection(stack_, *this, local, dst, port));
    conns_[Key{dst.raw(), port, local}] = conn;
    // conns_ owns the connection until close or stack teardown. The
    // startConnect continuation is stored on the connection itself, so
    // it may only reach its owner weakly; the lock below always
    // succeeds while the continuation can still run.
    std::weak_ptr<TcpConnection> weak = conn;
    conn->startConnect([weak, done = std::move(done)](Result<bool> r) {
        auto locked = weak.lock();
        if (r.ok() && locked)
            done(locked);
        else if (!r.ok())
            done(r.error());
    });
    return conn;
}

Tcp::~Tcp()
{
    // Connections still open at stack teardown hold handlers that
    // usually capture their own TcpConnPtr; break the cycles so the
    // map erase below actually frees them.
    for (auto &[key, conn] : conns_)
        conn->dropHandlers();
}

void
Tcp::input(const Ipv4Packet &pkt)
{
    if (!verifyTcpChecksum(pkt.src, pkt.dst, pkt.payload)) {
        checksum_errors_++;
        return;
    }
    stack_.chargeChecksum(pkt.payload.length());
    auto parsed = TcpSegment::parse(pkt.payload);
    if (!parsed.ok())
        return;
    const TcpSegment &seg = parsed.value();

    Key key{pkt.src.raw(), seg.srcPort, seg.dstPort};
    auto it = conns_.find(key);
    if (it != conns_.end()) {
        // Hold a reference: input may close and remove the connection.
        TcpConnPtr conn = it->second;
        conn->segmentInput(seg);
        return;
    }

    // New connection? Must be a SYN to a listening port.
    if (seg.has(TcpFlags::syn) && !seg.has(TcpFlags::ack)) {
        auto lit = listeners_.find(seg.dstPort);
        if (lit != listeners_.end()) {
            auto conn = TcpConnPtr(new TcpConnection(
                stack_, *this, seg.dstPort, pkt.src, seg.srcPort));
            conns_[key] = conn;
            conn->startAccept(seg);
            return;
        }
    }
    if (!seg.has(TcpFlags::rst))
        sendRstFor(seg, pkt.src);
}

void
Tcp::connectionEstablished(TcpConnection &conn)
{
    auto lit = listeners_.find(conn.localPort());
    if (lit == listeners_.end())
        return;
    Key key{conn.peerAddr().raw(), conn.peerPort(), conn.localPort()};
    auto it = conns_.find(key);
    if (it != conns_.end())
        lit->second(it->second);
}

void
Tcp::remove(TcpConnection &conn)
{
    Key key{conn.peerAddr().raw(), conn.peerPort(), conn.localPort()};
    conns_.erase(key);
}

void
Tcp::sendRstFor(const TcpSegment &seg, Ipv4Addr src)
{
    rsts_++;
    auto hdr_page = stack_.allocHeader(Ipv4::headerBytes + 20);
    if (!hdr_page.ok())
        return;
    Cstruct tcp_hdr = hdr_page.value().shift(EthFrame::headerBytes +
                                             Ipv4::headerBytes);
    u32 rst_seq = seg.has(TcpFlags::ack) ? seg.ack : 0;
    u32 rst_ack = seg.seq + u32(seg.payload.length()) +
                  (seg.has(TcpFlags::syn) ? 1 : 0);
    std::size_t hdr_len = writeTcpHeader(
        tcp_hdr, seg.dstPort, seg.srcPort, rst_seq, rst_ack,
        TcpFlags::rst | TcpFlags::ack, 0, false, 0, -1);
    Cstruct hdr = tcp_hdr.sub(0, hdr_len);
    fillTcpChecksum(stack_.ip(), src, hdr, hdr_len, {});
    stack_.ipv4().send(src, IpProto::tcp, {hdr});
}

} // namespace mirage::net
