/**
 * @file
 * Network stack tests: ARP resolution, ICMP echo, UDP, IPv4
 * fragmentation/reassembly, DHCP end-to-end, and the TCP state
 * machine including loss recovery (fast retransmit + RTO) — all run
 * over the real ring/grant/bridge datapath.
 */

#include <gtest/gtest.h>

#include "net/dhcp.h"
#include "net/stack.h"

namespace mirage::net {
namespace {

/** Two unikernels with full stacks on one bridge. */
class NetTest : public ::testing::Test
{
  protected:
    NetTest()
        : hv(engine), bridge(engine, "br0"),
          dom0(hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512)),
          netback(dom0, bridge),
          dom_a(hv.createDomain("a", xen::GuestKind::Unikernel, 64)),
          dom_b(hv.createDomain("b", xen::GuestKind::Unikernel, 64)),
          boot_a(dom_a), boot_b(dom_b), sched_a(engine, &dom_a.vcpu()),
          sched_b(engine, &dom_b.vcpu()),
          nif_a(boot_a, netback, {0x02, 0, 0, 0, 0, 1}),
          nif_b(boot_b, netback, {0x02, 0, 0, 0, 0, 2}),
          stack_a(nif_a, sched_a,
                  {Ipv4Addr(10, 0, 0, 1), Ipv4Addr(255, 255, 255, 0),
                   Ipv4Addr(10, 0, 0, 254), 1.35}),
          stack_b(nif_b, sched_b,
                  {Ipv4Addr(10, 0, 0, 2), Ipv4Addr(255, 255, 255, 0),
                   Ipv4Addr(10, 0, 0, 254), 1.35})
    {
    }

    sim::Engine engine;
    xen::Hypervisor hv;
    xen::Bridge bridge;
    xen::Domain &dom0;
    xen::Netback netback;
    xen::Domain &dom_a;
    xen::Domain &dom_b;
    pvboot::PVBoot boot_a, boot_b;
    rt::Scheduler sched_a, sched_b;
    drivers::Netif nif_a, nif_b;
    NetworkStack stack_a, stack_b;
};

// ---- Addresses ---------------------------------------------------------------

TEST(AddressTest, Ipv4ParseFormat)
{
    auto a = Ipv4Addr::parse("192.168.1.200");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().toString(), "192.168.1.200");
    EXPECT_FALSE(Ipv4Addr::parse("300.1.1.1").ok());
    EXPECT_FALSE(Ipv4Addr::parse("1.2.3").ok());
    EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5").ok());
}

TEST(AddressTest, MacParseFormat)
{
    auto m = MacAddr::parse("00:16:3e:aa:bb:cc");
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().toString(), "00:16:3e:aa:bb:cc");
    EXPECT_TRUE(MacAddr::broadcast().isBroadcast());
    EXPECT_FALSE(m.value().isBroadcast());
}

TEST(AddressTest, SubnetMembership)
{
    Ipv4Addr net(10, 0, 0, 0), mask(255, 255, 255, 0);
    EXPECT_TRUE(Ipv4Addr(10, 0, 0, 77).inSubnet(net, mask));
    EXPECT_FALSE(Ipv4Addr(10, 0, 1, 77).inSubnet(net, mask));
}

// ---- ARP ----------------------------------------------------------------------

TEST_F(NetTest, ArpResolvesNeighbour)
{
    Result<MacAddr> got = notFoundError("not yet");
    stack_a.arp().resolve(Ipv4Addr(10, 0, 0, 2),
                          [&](Result<MacAddr> r) { got = r; });
    engine.run();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), stack_b.mac());
    EXPECT_EQ(stack_a.arp().cacheSize(), 1u);
    EXPECT_GE(stack_b.arp().repliesSent(), 1u);
}

TEST_F(NetTest, ArpCachesSecondLookup)
{
    stack_a.arp().resolve(Ipv4Addr(10, 0, 0, 2), [](Result<MacAddr>) {});
    engine.run();
    u64 sent = stack_a.arp().requestsSent();
    bool hit = false;
    stack_a.arp().resolve(Ipv4Addr(10, 0, 0, 2),
                          [&](Result<MacAddr> r) { hit = r.ok(); });
    EXPECT_TRUE(hit) << "cache hit must complete synchronously";
    EXPECT_EQ(stack_a.arp().requestsSent(), sent);
}

TEST_F(NetTest, ArpFailsForDeadAddress)
{
    Result<MacAddr> got = MacAddr();
    stack_a.arp().resolve(Ipv4Addr(10, 0, 0, 99),
                          [&](Result<MacAddr> r) { got = r; });
    engine.run();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().kind, Error::Kind::NotFound);
    EXPECT_EQ(stack_a.arp().requestsSent(), u64(Arp::maxRetries));
}

// ---- ICMP ----------------------------------------------------------------------

TEST_F(NetTest, PingEchoRoundTrip)
{
    Result<Duration> rtt = Error(Error::Kind::Io, "pending");
    stack_a.icmp().ping(Ipv4Addr(10, 0, 0, 2), 1, 56,
                        [&](Result<Duration> r) { rtt = r; });
    engine.run();
    ASSERT_TRUE(rtt.ok());
    EXPECT_GT(rtt.value().ns(), 0);
    EXPECT_EQ(stack_b.icmp().echoRequestsServed(), 1u);
    EXPECT_EQ(stack_a.icmp().echoRepliesReceived(), 1u);
}

TEST_F(NetTest, PingFloodSurvives)
{
    // A miniature §4.1.3 flood: every request must be answered.
    int ok = 0, bad = 0;
    for (u16 i = 0; i < 200; i++) {
        stack_a.icmp().ping(Ipv4Addr(10, 0, 0, 2), i, 56,
                            [&](Result<Duration> r) {
                                if (r.ok())
                                    ok++;
                                else
                                    bad++;
                            });
    }
    engine.run();
    EXPECT_EQ(ok, 200);
    EXPECT_EQ(bad, 0);
}

// ---- UDP ----------------------------------------------------------------------

TEST_F(NetTest, UdpEcho)
{
    ASSERT_TRUE(stack_b.udp()
                    .listen(7,
                            [&](const UdpDatagram &d) {
                                stack_b.udp().sendTo(d.srcIp, d.srcPort,
                                                     7, {d.payload});
                            })
                    .ok());
    std::string got;
    ASSERT_TRUE(stack_a.udp()
                    .listen(30000,
                            [&](const UdpDatagram &d) {
                                got = d.payload.toString();
                            })
                    .ok());
    stack_a.udp().sendTo(Ipv4Addr(10, 0, 0, 2), 7, 30000,
                         {Cstruct::ofString("echo me")});
    engine.run();
    EXPECT_EQ(got, "echo me");
}

TEST_F(NetTest, UdpPortConflictRefused)
{
    ASSERT_TRUE(stack_b.udp().listen(53, [](const UdpDatagram &) {}).ok());
    EXPECT_FALSE(
        stack_b.udp().listen(53, [](const UdpDatagram &) {}).ok());
    stack_b.udp().unlisten(53);
    EXPECT_TRUE(stack_b.udp().listen(53, [](const UdpDatagram &) {}).ok());
}

TEST_F(NetTest, UdpNoListenerCounted)
{
    stack_a.udp().sendTo(Ipv4Addr(10, 0, 0, 2), 9999, 30000,
                         {Cstruct::ofString("void")});
    engine.run();
    EXPECT_EQ(stack_b.udp().noListener(), 1u);
}

// ---- IPv4 fragmentation -----------------------------------------------------------

TEST_F(NetTest, LargeDatagramFragmentsAndReassembles)
{
    // 5000-byte UDP payload > MTU: must fragment on send and
    // reassemble before delivery.
    Cstruct big = Cstruct::create(5000);
    for (std::size_t i = 0; i < big.length(); i++)
        big.setU8(i, u8(i * 31 + 7));
    Cstruct got;
    ASSERT_TRUE(stack_b.udp()
                    .listen(4444,
                            [&](const UdpDatagram &d) {
                                got = d.payload;
                            })
                    .ok());
    stack_a.udp().sendTo(Ipv4Addr(10, 0, 0, 2), 4444, 30000, {big});
    engine.run();
    ASSERT_EQ(got.length(), 5000u);
    EXPECT_TRUE(got.contentEquals(big));
    EXPECT_GT(stack_a.ipv4().fragmentsSent(), 0u);
    EXPECT_EQ(stack_b.ipv4().reassemblies(), 1u);
}

// ---- DHCP -----------------------------------------------------------------------

TEST_F(NetTest, DhcpLeaseEndToEnd)
{
    // stack_b acts as the DHCP server; a third unikernel boots with no
    // address and acquires one dynamically (§2.3.1).
    DhcpServer server(stack_b, Ipv4Addr(10, 0, 0, 100), 16,
                      Ipv4Addr(255, 255, 255, 0), Ipv4Addr(10, 0, 0, 254));

    xen::Domain &dom_c =
        hv.createDomain("c", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_c(dom_c);
    rt::Scheduler sched_c(engine, &dom_c.vcpu());
    drivers::Netif nif_c(boot_c, netback, {0x02, 0, 0, 0, 0, 3});
    NetworkStack stack_c(nif_c, sched_c,
                         {Ipv4Addr::any(), Ipv4Addr(255, 255, 255, 0),
                          Ipv4Addr::any(), 1.35});

    DhcpClient client(stack_c);
    Result<DhcpLease> lease = Error(Error::Kind::Io, "pending");
    client.start([&](Result<DhcpLease> r) { lease = r; });
    engine.run();
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(lease.value().address, Ipv4Addr(10, 0, 0, 100));
    EXPECT_EQ(stack_c.ip(), Ipv4Addr(10, 0, 0, 100));
    EXPECT_EQ(stack_c.gateway(), Ipv4Addr(10, 0, 0, 254));
    EXPECT_EQ(client.state(), DhcpClient::State::Bound);
    EXPECT_EQ(server.leasesGranted(), 1u);
}

// ---- TCP -----------------------------------------------------------------------

TEST_F(NetTest, TcpConnectAndExchange)
{
    TcpConnPtr server_conn;
    std::string server_got;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(8080,
                            [&](TcpConnPtr c) {
                                server_conn = c;
                                c->onData([&, c](Cstruct d) {
                                    server_got += d.toString();
                                    c->write(Cstruct::ofString("pong"));
                                });
                            })
                    .ok());

    std::string client_got;
    Result<TcpConnPtr> client = stateError("pending");
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 8080,
                          [&](Result<TcpConnPtr> r) {
                              client = r;
                              if (r.ok()) {
                                  r.value()->onData([&](Cstruct d) {
                                      client_got += d.toString();
                                  });
                                  r.value()->write(
                                      Cstruct::ofString("ping"));
                              }
                          });
    engine.run();
    ASSERT_TRUE(client.ok());
    EXPECT_EQ(client.value()->state(), TcpConnection::State::Established);
    EXPECT_EQ(server_got, "ping");
    EXPECT_EQ(client_got, "pong");
}

TEST_F(NetTest, TcpConnectRefusedByRst)
{
    Result<TcpConnPtr> r = stateError("pending");
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 81,
                          [&](Result<TcpConnPtr> res) { r = res; });
    engine.run();
    EXPECT_FALSE(r.ok());
    EXPECT_GE(stack_b.tcp().resetsSent(), 1u);
}

TEST_F(NetTest, TcpBulkTransferIntegrity)
{
    // 1 MB of patterned data; verify every byte and in-order delivery.
    constexpr std::size_t total = 1 << 20;
    Cstruct data = Cstruct::create(total);
    for (std::size_t i = 0; i < total; i++)
        data.setU8(i, u8((i * 2654435761u) >> 24));

    std::size_t received = 0;
    bool mismatch = false;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9000,
                            [&](TcpConnPtr c) {
                                c->onData([&, c](Cstruct d) {
                                    for (std::size_t i = 0;
                                         i < d.length(); i++) {
                                        u8 expect = u8(
                                            ((received + i) *
                                             2654435761u) >>
                                            24);
                                        if (d.getU8(i) != expect)
                                            mismatch = true;
                                    }
                                    received += d.length();
                                });
                            })
                    .ok());

    stack_a.tcp().connect(
        Ipv4Addr(10, 0, 0, 2), 9000, [&](Result<TcpConnPtr> r) {
            ASSERT_TRUE(r.ok());
            // Write in chunks as a real application would.
            for (std::size_t off = 0; off < total; off += 64 * 1024)
                r.value()->write(data.sub(off, 64 * 1024));
        });
    engine.run();
    EXPECT_EQ(received, total);
    EXPECT_FALSE(mismatch) << "payload corruption in TCP path";
}

TEST_F(NetTest, TcpRecoversFromLoss)
{
    // Drop ~4% of frames: the transfer must still complete exactly,
    // via fast retransmit and/or RTO.
    Rng drop_rng(42);
    bridge.setDropFn(
        [&](const Cstruct &) { return drop_rng.uniform() < 0.04; });

    constexpr std::size_t total = 256 * 1024;
    Cstruct data = Cstruct::create(total);
    for (std::size_t i = 0; i < total; i++)
        data.setU8(i, u8(i % 251));

    std::size_t received = 0;
    bool mismatch = false;
    TcpConnPtr server_conn;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9001,
                            [&](TcpConnPtr c) {
                                server_conn = c;
                                c->onData([&](Cstruct d) {
                                    for (std::size_t i = 0;
                                         i < d.length(); i++)
                                        if (d.getU8(i) !=
                                            u8((received + i) % 251))
                                            mismatch = true;
                                    received += d.length();
                                });
                            })
                    .ok());

    TcpConnPtr client_conn;
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9001,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                              for (std::size_t off = 0; off < total;
                                   off += 32 * 1024)
                                  client_conn->write(
                                      data.sub(off, 32 * 1024));
                          });
    engine.run();
    EXPECT_EQ(received, total);
    EXPECT_FALSE(mismatch);
    ASSERT_TRUE(client_conn != nullptr);
    EXPECT_GT(client_conn->stats().retransmits.value(), 0u)
        << "loss must actually have exercised recovery";
    EXPECT_GT(bridge.framesDropped(), 0u);
}

TEST_F(NetTest, TcpFastRetransmitOnIsolatedLoss)
{
    // Drop exactly one data frame mid-stream: recovery should come
    // from dup-ACKs (fast retransmit), not only RTO. Count only
    // full-size segments so control-frame interleaving (which shifts
    // with doorbell coalescing) cannot land the drop on an ACK.
    int data_count = 0;
    bridge.setDropFn([&](const Cstruct &frame) {
        return frame.length() > 1000 && ++data_count == 20;
    });

    constexpr std::size_t total = 512 * 1024;
    Cstruct data = Cstruct::create(total);
    std::size_t received = 0;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9002,
                            [&](TcpConnPtr c) {
                                c->onData([&](Cstruct d) {
                                    received += d.length();
                                });
                            })
                    .ok());
    TcpConnPtr client_conn;
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9002,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                              client_conn->write(data);
                          });
    engine.run();
    EXPECT_EQ(received, total);
    ASSERT_TRUE(client_conn != nullptr);
    EXPECT_GE(client_conn->stats().fastRetransmits.value(), 1u);
}

TEST_F(NetTest, TcpSegOffloadBulkTransferIsByteExact)
{
    // With TSO + checksum offload, TCP hands multi-MSS chains to the
    // ring and leaves the checksum to netback. The receiver (offload
    // off) must still see an in-order, byte-exact, checksum-clean
    // stream — and the sender must have sent far fewer segments than
    // total/MSS, or the offload never engaged.
    stack_a.setTxOffload(true, true);

    constexpr std::size_t total = 512 * 1024;
    Cstruct data = Cstruct::create(total);
    for (std::size_t i = 0; i < total; i++)
        data.setU8(i, u8(i % 251));

    std::size_t received = 0;
    bool mismatch = false;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9005,
                            [&](TcpConnPtr c) {
                                c->onData([&](Cstruct d) {
                                    for (std::size_t i = 0;
                                         i < d.length(); i++)
                                        if (d.getU8(i) !=
                                            u8((received + i) % 251))
                                            mismatch = true;
                                    received += d.length();
                                });
                            })
                    .ok());
    TcpConnPtr client_conn;
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9005,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                              client_conn->write(data);
                          });
    engine.run();
    EXPECT_EQ(received, total);
    EXPECT_FALSE(mismatch);
    EXPECT_EQ(stack_b.tcp().checksumErrors(), 0u)
        << "netback must fill the offloaded checksum before the wire";
    ASSERT_TRUE(client_conn != nullptr);
    // 512 KiB / 1460 B/MSS is ~359 packets; multi-MSS chains (ACK
    // clocking keeps them ~2-3 MSS here) must at least halve that.
    EXPECT_LT(client_conn->stats().segmentsSent.value(), total / 1460 / 2)
        << "segment count says TSO chains never formed";
}

TEST_F(NetTest, TcpRetransmitUnderOffloadResegments)
{
    // Drop one *backend-segmented* frame mid-stream (only GRO-merged
    // derived frames exceed 2000 bytes on this MTU-1500 bridge). The
    // retransmission is cut from the byte stream against the current
    // MSS with a software checksum — not a replay of the lost
    // multi-MSS chain — so the receiver must end byte-exact with zero
    // checksum errors.
    stack_a.setTxOffload(true, true);
    int big_count = 0;
    bridge.setDropFn([&](const Cstruct &frame) {
        return frame.length() > 2000 && ++big_count == 8;
    });

    constexpr std::size_t total = 512 * 1024;
    Cstruct data = Cstruct::create(total);
    for (std::size_t i = 0; i < total; i++)
        data.setU8(i, u8(i % 249));

    std::size_t received = 0;
    bool mismatch = false;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9006,
                            [&](TcpConnPtr c) {
                                c->onData([&](Cstruct d) {
                                    for (std::size_t i = 0;
                                         i < d.length(); i++)
                                        if (d.getU8(i) !=
                                            u8((received + i) % 249))
                                            mismatch = true;
                                    received += d.length();
                                });
                            })
                    .ok());
    TcpConnPtr client_conn;
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9006,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                              client_conn->write(data);
                          });
    engine.run();
    EXPECT_EQ(received, total);
    EXPECT_FALSE(mismatch);
    EXPECT_GT(bridge.framesDropped(), 0u)
        << "the drop filter never fired: no segmented frame appeared";
    ASSERT_TRUE(client_conn != nullptr);
    EXPECT_GE(client_conn->stats().retransmits.value(), 1u);
    EXPECT_EQ(stack_b.tcp().checksumErrors(), 0u)
        << "retransmits must carry a software checksum";
}

TEST_F(NetTest, TcpCloseHandshake)
{
    TcpConnPtr server_conn;
    bool server_closed = false, client_closed = false;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9003,
                            [&](TcpConnPtr c) {
                                server_conn = c;
                                c->onClose([&, c] {
                                    server_closed = true;
                                    c->close(); // close our side too
                                });
                            })
                    .ok());
    TcpConnPtr client_conn;
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9003,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                              client_conn->onClose(
                                  [&] { client_closed = true; });
                              client_conn->write(
                                  Cstruct::ofString("bye"));
                              client_conn->close();
                          });
    engine.run();
    EXPECT_TRUE(server_closed);
    EXPECT_TRUE(client_closed);
    ASSERT_TRUE(client_conn != nullptr);
    EXPECT_EQ(client_conn->state(), TcpConnection::State::Closed);
    EXPECT_EQ(stack_a.tcp().connectionCount(), 0u);
    EXPECT_EQ(stack_b.tcp().connectionCount(), 0u);
}

TEST_F(NetTest, TcpWindowScaleNegotiated)
{
    // Bulk flow must exceed the unscaled 64 kB window in flight terms:
    // simply assert both ends agreed on scaling and the transfer of
    // >64 kB in one burst completes.
    constexpr std::size_t total = 300 * 1024;
    std::size_t received = 0;
    ASSERT_TRUE(stack_b.tcp()
                    .listen(9004,
                            [&](TcpConnPtr c) {
                                c->onData([&](Cstruct d) {
                                    received += d.length();
                                });
                            })
                    .ok());
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9004,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              r.value()->write(Cstruct::create(total));
                          });
    engine.run();
    EXPECT_EQ(received, total);
}

TEST_F(NetTest, TcpSynWindowNotScaled)
{
    // RFC 7323: the window field of a SYN or SYN|ACK is never scaled.
    // The client learns its send window from the server's SYN|ACK,
    // which advertises 65535 — a buggy receiver applying the scale
    // factor would believe 65535 << 7 instead.
    u64 wnd_at_establish = 0;
    ASSERT_TRUE(stack_b.tcp().listen(9006, [](TcpConnPtr) {}).ok());
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9006,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              wnd_at_establish = r.value()->sndWnd();
                          });
    engine.run();
    EXPECT_EQ(wnd_at_establish, 65535u);
}

TEST_F(NetTest, TcpCloseInSynSentAbortsConnect)
{
    // Connect to an address that never answers, then close before the
    // handshake completes: the pending connect callback must fail, the
    // SYN must stop retransmitting, and the simulation must drain.
    bool cb_ran = false;
    Result<TcpConnPtr> r = stateError("pending");
    TcpConnPtr conn = stack_a.tcp().connect(
        Ipv4Addr(10, 0, 0, 99), 9999,
        [&](Result<TcpConnPtr> res) {
            cb_ran = true;
            r = res;
        });
    ASSERT_TRUE(conn != nullptr);
    EXPECT_EQ(conn->state(), TcpConnection::State::SynSent);
    engine.runFor(Duration::millis(10)); // below the 200 ms initial RTO
    conn->close();
    EXPECT_TRUE(cb_ran);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(conn->state(), TcpConnection::State::Closed);
    EXPECT_EQ(stack_a.tcp().connectionCount(), 0u);
    engine.run(); // an orphaned RTO timer would never let this return
    EXPECT_EQ(conn->stats().rtoFires.value(), 0u);
}

TEST_F(NetTest, TcpWriteAfterCloseRefused)
{
    TcpConnPtr client_conn;
    stack_b.tcp().listen(9005, [](TcpConnPtr) {});
    stack_a.tcp().connect(Ipv4Addr(10, 0, 0, 2), 9005,
                          [&](Result<TcpConnPtr> r) {
                              ASSERT_TRUE(r.ok());
                              client_conn = r.value();
                          });
    engine.run();
    ASSERT_TRUE(client_conn != nullptr);
    client_conn->close();
    auto w = client_conn->write(Cstruct::ofString("late"));
    EXPECT_TRUE(w->cancelled());
}

// ---- Wire-format property tests ----------------------------------------------

class TcpHeaderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TcpHeaderProperty, BuildThenParseRoundTrips)
{
    Rng rng{u64(GetParam())};
    Cstruct buf = Cstruct::create(60);
    u16 sport = u16(rng.below(65536));
    u16 dport = u16(rng.below(65536));
    u32 seq = u32(rng.next());
    u32 ack = u32(rng.next());
    u8 flags = u8(rng.below(0x40));
    u16 window = u16(rng.below(65536));
    bool syn = rng.uniform() < 0.5;
    std::size_t len = writeTcpHeader(buf, sport, dport, seq, ack, flags,
                                     window, syn, 1460, syn ? 7 : -1);
    auto parsed = TcpSegment::parse(buf.sub(0, len));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().srcPort, sport);
    EXPECT_EQ(parsed.value().dstPort, dport);
    EXPECT_EQ(parsed.value().seq, seq);
    EXPECT_EQ(parsed.value().ack, ack);
    EXPECT_EQ(parsed.value().flags, flags);
    EXPECT_EQ(parsed.value().window, window);
    if (syn) {
        EXPECT_EQ(parsed.value().mssOpt, 1460);
        EXPECT_EQ(parsed.value().wscaleOpt, 7);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpHeaderProperty,
                         ::testing::Range(0, 25));

TEST(TcpWireTest, ParseRejectsTruncation)
{
    Cstruct tiny = Cstruct::create(10);
    EXPECT_FALSE(TcpSegment::parse(tiny).ok());
    // Data offset pointing past the segment.
    Cstruct bad = Cstruct::create(20);
    bad.setU8(12, 0xf0); // 60-byte header claimed, 20 present
    EXPECT_FALSE(TcpSegment::parse(bad).ok());
}

TEST(TcpWireTest, SeqArithmeticWraps)
{
    EXPECT_TRUE(seqLt(0xfffffff0u, 0x10u)) << "wraparound compare";
    EXPECT_FALSE(seqLt(0x10u, 0xfffffff0u));
    EXPECT_TRUE(seqLe(5u, 5u));
}

} // namespace
} // namespace mirage::net
