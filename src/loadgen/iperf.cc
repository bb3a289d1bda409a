#include "loadgen/iperf.h"

#include "base/logging.h"

namespace mirage::loadgen {

IperfServer::IperfServer(core::Guest &guest, u16 port)
{
    Status st = guest.stack.tcp().listen(
        port, [this](net::TcpConnPtr conn) {
            conn->onData(
                [this](Cstruct data) { bytes_ += data.length(); });
        });
    if (!st.ok())
        fatal("iperf server: %s", st.error().message.c_str());
}

namespace {

constexpr std::size_t chunkBytes = 32 * 1024;

struct RunState : std::enable_shared_from_this<RunState>
{
    core::Guest &client;
    const IperfServer &server;
    Duration window;
    std::function<void(IperfClient::Report)> done;
    std::vector<net::TcpConnPtr> conns;
    Cstruct chunk = Cstruct::create(chunkBytes);
    u64 sent = 0;
    u64 server_bytes_start = 0;
    TimePoint start;
    bool running = false;
    u64 retransmits_start = 0;

    RunState(core::Guest &c, const IperfServer &s, Duration w,
             std::function<void(IperfClient::Report)> d)
        : client(c), server(s), window(w), done(std::move(d))
    {
    }

    void
    pump(const net::TcpConnPtr &conn)
    {
        if (!running)
            return;
        auto p = conn->write(chunk);
        sent += chunkBytes;
        auto self = shared_from_this();
        p->onComplete([self, conn](rt::Promise &pr) {
            if (pr.resolvedOk())
                self->pump(conn);
        });
    }

    void
    finish()
    {
        running = false;
        IperfClient::Report report;
        report.bytesSent = sent;
        u64 delivered = server.bytesReceived() - server_bytes_start;
        Duration elapsed = client.sched.engine().now() - start;
        report.mbps = double(delivered) * 8.0 /
                      (elapsed.toSecondsF() * 1e6);
        for (const auto &conn : conns) {
            report.retransmits += conn->stats().retransmits.value();
            conn->close();
        }
        done(report);
    }
};

} // namespace

void
IperfClient::run(core::Guest &client, const IperfServer &server,
                 net::Ipv4Addr dst, u16 port, u32 flows,
                 Duration window, std::function<void(Report)> done)
{
    auto st = std::make_shared<RunState>(client, server, window,
                                         std::move(done));
    st->running = true;
    st->start = client.sched.engine().now();
    st->server_bytes_start = server.bytesReceived();
    auto remaining = std::make_shared<u32>(flows);
    for (u32 i = 0; i < flows; i++) {
        client.stack.tcp().connect(
            dst, port, [st, remaining](Result<net::TcpConnPtr> r) {
                if (!r.ok())
                    fatal("iperf connect failed: %s",
                          r.error().message.c_str());
                st->conns.push_back(r.value());
                st->pump(r.value());
                (void)remaining;
            });
    }
    client.sched.engine().after(window, [st] { st->finish(); });
}

} // namespace mirage::loadgen
