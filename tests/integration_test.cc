/**
 * @file
 * Full-system integration tests: every load generator driving its
 * appliance across the simulated cloud — DNS via queryperf, TCP bulk
 * via iperf, web sessions via httperf, controllers via cbench, block
 * I/O via fio, and latency via flood ping. These are the same
 * couplings the benches sweep; here they run at small scale and
 * assert functional sanity and key structural relationships.
 */

#include <gtest/gtest.h>

#include "baseline/buffer_cache.h"
#include "baseline/dns_servers.h"
#include "baseline/of_controllers.h"
#include "loadgen/cbench.h"
#include "loadgen/fio.h"
#include "loadgen/httperf.h"
#include "loadgen/iperf.h"
#include "loadgen/pingflood.h"
#include "loadgen/queryperf.h"
#include "protocols/http/server.h"

namespace mirage {
namespace {

TEST(IntegrationTest, QueryperfAgainstMirageDns)
{
    core::Cloud cloud;
    baseline::DnsAppliance appliance(
        cloud, baseline::DnsAppliance::Kind::MirageMemo,
        dns::syntheticZone("bench.example.", 100),
        net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("qp", net::Ipv4Addr(10, 0, 0, 3));

    loadgen::QueryPerf::Config cfg;
    cfg.server = net::Ipv4Addr(10, 0, 0, 2);
    cfg.zoneEntries = 100;
    cfg.window = Duration::millis(200);
    loadgen::QueryPerf qp(client, cfg);
    loadgen::QueryPerf::Report report;
    qp.run([&](loadgen::QueryPerf::Report r) { report = r; });
    cloud.run();
    EXPECT_GT(report.completed, 100u);
    EXPECT_EQ(report.mismatches, 0u);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GT(appliance.server().stats().memoHits, 0u);
}

TEST(IntegrationTest, MirageMemoBeatsBindShape)
{
    // The Fig 10 ordering at one point: memo > NSD > BIND > no-memo.
    auto throughput = [](baseline::DnsAppliance::Kind kind) {
        core::Cloud cloud;
        baseline::DnsAppliance appliance(
            cloud, kind, dns::syntheticZone("bench.example.", 1000),
            net::Ipv4Addr(10, 0, 0, 2));
        core::Guest &client =
            cloud.startUnikernel("qp", net::Ipv4Addr(10, 0, 0, 3));
        loadgen::QueryPerf::Config cfg;
        cfg.server = net::Ipv4Addr(10, 0, 0, 2);
        cfg.zoneEntries = 1000;
        cfg.window = Duration::millis(300);
        loadgen::QueryPerf qp(client, cfg);
        double qps = 0;
        qp.run([&](loadgen::QueryPerf::Report r) { qps = r.qps; });
        cloud.run();
        return qps;
    };
    double memo =
        throughput(baseline::DnsAppliance::Kind::MirageMemo);
    double nomemo =
        throughput(baseline::DnsAppliance::Kind::MirageNoMemo);
    double nsd = throughput(baseline::DnsAppliance::Kind::NsdLinux);
    double bind = throughput(baseline::DnsAppliance::Kind::BindLinux);
    double minios =
        throughput(baseline::DnsAppliance::Kind::NsdMiniOsO3);
    EXPECT_GT(memo, nsd);
    EXPECT_GT(nsd, bind);
    EXPECT_GT(bind, nomemo);
    EXPECT_GT(nomemo, minios);
}

TEST(IntegrationTest, IperfBulkBetweenGuests)
{
    core::Cloud cloud;
    core::Guest &server =
        cloud.startUnikernel("rx", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("tx", net::Ipv4Addr(10, 0, 0, 3));
    loadgen::IperfServer iperf_server(server, 5001);
    loadgen::IperfClient::Report report;
    loadgen::IperfClient::run(client, iperf_server,
                              net::Ipv4Addr(10, 0, 0, 2), 5001, 1,
                              Duration::millis(300),
                              [&](auto r) { report = r; });
    cloud.run();
    EXPECT_GT(report.mbps, 100.0) << "bulk TCP should exceed 100 Mbps";
    EXPECT_GT(iperf_server.bytesReceived(), u64(1) << 20);
}

TEST(IntegrationTest, HttperfSessionsAgainstHttpServer)
{
    core::Cloud cloud;
    core::Guest &server =
        cloud.startUnikernel("web", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("hp", net::Ipv4Addr(10, 0, 0, 3));

    std::map<std::string, std::vector<std::string>> tweets;
    http::HttpServer web(
        server.stack, 80,
        [&](const http::HttpRequest &req, auto respond) {
            if (req.method == "POST") {
                tweets[req.path].push_back(req.body);
                respond(http::HttpResponse::text(200, "posted"));
            } else {
                respond(http::HttpResponse::text(200, "timeline"));
            }
        });

    loadgen::HttPerf::Config cfg;
    cfg.server = net::Ipv4Addr(10, 0, 0, 2);
    cfg.sessionsPerSecond = 50;
    cfg.window = Duration::millis(400);
    loadgen::HttPerf hp(client, cfg);
    loadgen::HttPerf::Report report;
    hp.run([&](auto r) { report = r; });
    cloud.run();
    EXPECT_GT(report.sessionsCompleted, 10u);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.repliesReceived, report.sessionsStarted * 10)
        << "every request of every started session must be answered";
    EXPECT_FALSE(tweets.empty());
}

TEST(IntegrationTest, CbenchAgainstMirageController)
{
    core::Cloud cloud;
    baseline::OfControllerAppliance controller(
        cloud, baseline::OfControllerAppliance::Kind::Mirage,
        net::Ipv4Addr(10, 0, 0, 2), true);
    core::Guest &client =
        cloud.startUnikernel("cb", net::Ipv4Addr(10, 0, 0, 3));

    loadgen::CBench::Config cfg;
    cfg.controller = net::Ipv4Addr(10, 0, 0, 2);
    cfg.switches = 4;
    cfg.batch = true;
    cfg.batchDepth = 16;
    cfg.window = Duration::millis(200);
    loadgen::CBench cb(client, cfg);
    loadgen::CBench::Report report;
    cb.run([&](auto r) { report = r; });
    cloud.run();
    EXPECT_GT(report.responses, 100u);
    EXPECT_EQ(controller.controller().switchesConnected(), 4u);
    EXPECT_GT(controller.controller().flowModsSent(), 0u);
}

TEST(IntegrationTest, CbenchSingleModeSlowerThanBatch)
{
    auto rate = [](bool batch) {
        core::Cloud cloud;
        baseline::OfControllerAppliance controller(
            cloud, baseline::OfControllerAppliance::Kind::NoxFast,
            net::Ipv4Addr(10, 0, 0, 2), batch);
        core::Guest &client =
            cloud.startUnikernel("cb", net::Ipv4Addr(10, 0, 0, 3));
        loadgen::CBench::Config cfg;
        cfg.controller = net::Ipv4Addr(10, 0, 0, 2);
        cfg.switches = 4;
        cfg.batch = batch;
        cfg.window = Duration::millis(200);
        loadgen::CBench cb(client, cfg);
        double out = 0;
        cb.run([&](auto r) { out = r.responsesPerSecond; });
        cloud.run();
        return out;
    };
    EXPECT_GT(rate(true), rate(false))
        << "batch mode must beat single (boundary amortisation)";
}

TEST(IntegrationTest, FioDirectVsBuffered)
{
    core::Cloud cloud;
    xen::VirtualDisk &disk = cloud.addDisk("ssd", 1u << 20);
    xen::Blkback &back = cloud.blkbackFor(disk);
    core::Guest &guest =
        cloud.startUnikernel("io", net::Ipv4Addr(10, 0, 0, 2));
    drivers::Blkif blkif(guest.boot, back);
    storage::BlkifDevice direct(blkif);
    baseline::BufferCacheDevice buffered(direct, guest.dom.vcpu(),
                                         4096);

    auto measure = [&](storage::BlockDevice &dev) {
        loadgen::Fio::Config cfg;
        cfg.blockKiB = 256;
        cfg.queueDepth = 8;
        cfg.window = Duration::millis(300);
        loadgen::Fio fio(cloud.engine(), dev, cfg);
        double mibs = 0;
        fio.run([&](auto r) { mibs = r.mibPerSecond; });
        cloud.run();
        return mibs;
    };
    double direct_mibs = measure(direct);
    double buffered_mibs = measure(buffered);
    EXPECT_GT(direct_mibs, 800.0)
        << "direct path should approach device bandwidth";
    EXPECT_LT(buffered_mibs, direct_mibs)
        << "Fig 9: the buffer cache must cap throughput";
}

TEST(IntegrationTest, PingFloodLatencyProfile)
{
    core::Cloud cloud;
    core::Guest &target =
        cloud.startUnikernel("t", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &pinger =
        cloud.startUnikernel("p", net::Ipv4Addr(10, 0, 0, 3));
    (void)target;

    loadgen::PingFlood::Config cfg;
    cfg.target = net::Ipv4Addr(10, 0, 0, 2);
    cfg.count = 500;
    loadgen::PingFlood flood(pinger, cfg);
    loadgen::PingFlood::Report report;
    flood.run([&](auto r) { report = r; });
    cloud.run();
    EXPECT_EQ(report.received, 500u) << "no losses on a clean bridge";
    EXPECT_GT(report.meanRtt.ns(), 0);
    EXPECT_GE(report.p99.ns(), report.p50.ns());
}

/**
 * One count, one cell: each registry total is fed by exactly its
 * owners' own counters, so the per-owner reads and the registry sums
 * cannot drift. One cloud drives TCP both ways, both netifs' grant
 * pools and netback map caches, event channels and blkif traffic
 * (errors included), then checks every total against its owners' sum.
 */
TEST(MetricsTest, RegistryTotalsEqualOwnerSums)
{
    core::Cloud cloud;
    xen::VirtualDisk &disk = cloud.addDisk("ssd", 4096);
    xen::Blkback &back = cloud.blkbackFor(disk);
    core::Guest &server =
        cloud.startUnikernel("srv", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("cli", net::Ipv4Addr(10, 0, 0, 3));
    drivers::Blkif blkif(server.boot, back);

    // An echo server; every connection stays open to the end.
    std::vector<net::TcpConnPtr> conns;
    ASSERT_TRUE(server.stack.tcp()
                    .listen(7,
                            [&](net::TcpConnPtr c) {
                                conns.push_back(c);
                                net::TcpConnection *raw = c.get();
                                c->onData([raw](Cstruct d) {
                                    raw->write(std::move(d));
                                });
                            })
                    .ok());
    u64 echoed = 0;
    client.stack.tcp().connect(
        net::Ipv4Addr(10, 0, 0, 2), 7, [&](Result<net::TcpConnPtr> r) {
            ASSERT_TRUE(r.ok());
            conns.push_back(r.value());
            r.value()->onData([&](Cstruct d) { echoed += d.length(); });
            r.value()->write(Cstruct::ofString(std::string(64 * 1024, 'x')));
        });

    std::vector<rt::PromisePtr> io;
    for (u32 i = 0; i < 8; i++) {
        Cstruct page = blkif.allocPage().value();
        io.push_back(blkif.write(u64(i) * 8, 8, page));
        io.push_back(blkif.read(u64(i) * 8, 8, page));
    }
    // Past the end of the device: the backend answers with an error.
    io.push_back(blkif.read(4095, 8, blkif.allocPage().value()));
    cloud.run();
    ASSERT_EQ(echoed, 64u * 1024);
    ASSERT_EQ(conns.size(), 2u);

    const trace::MetricsRegistry &reg = cloud.metrics();
    auto total = [&](const std::string &name) {
        const trace::Counter *c = reg.findCounter(name);
        return c ? c->value() : u64(0);
    };

    // Event channels: the hub's two series and the per-domain senders.
    u64 sent = 0;
    for (const auto &[name, d] : cloud.profiler().domainStats())
        sent += d->notifies_sent.value();
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(total("evtchn.notifications"), sent);
    EXPECT_EQ(total("notify.sent"), sent);

    // Grant pools: both netifs and the blkif.
    const drivers::GrantPool *pools[] = {&server.nif.grantPool(),
                                         &client.nif.grantPool(),
                                         &blkif.grantPool()};
    u64 issued = 0, reused = 0;
    for (const drivers::GrantPool *p : pools) {
        issued += p->issued();
        reused += p->reused();
    }
    EXPECT_GT(issued, 0u);
    EXPECT_GT(reused, 0u);
    EXPECT_EQ(total("grant.issued"), issued);
    EXPECT_EQ(total("grant.reused"), reused);

    // Map caches: one netback vif per guest, and the blkback.
    u64 hits = 0, misses = 0, evictions = 0;
    for (core::Guest *g : {&server, &client}) {
        const xen::Netback::Vif *vif = cloud.netback().vifFor(g->dom);
        ASSERT_NE(vif, nullptr);
        hits += vif->mapCache().hits();
        misses += vif->mapCache().misses();
        evictions += vif->mapCache().evictions();
    }
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(total("netback.pmap.hits"), hits);
    EXPECT_EQ(total("netback.pmap.misses"), misses);
    EXPECT_EQ(total("netback.pmap.evictions"), evictions);
    EXPECT_GT(back.mapCache().misses(), 0u);
    EXPECT_EQ(total("blkback.pmap.hits"), back.mapCache().hits());
    EXPECT_EQ(total("blkback.pmap.misses"), back.mapCache().misses());
    EXPECT_EQ(total("blkback.pmap.evictions"),
              back.mapCache().evictions());

    // TCP: the two ends of the one connection.
    u64 tcp[8] = {};
    for (const net::TcpConnPtr &c : conns) {
        const net::TcpConnection::Stats &s = c->stats();
        tcp[0] += s.bytesSent.value();
        tcp[1] += s.bytesReceived.value();
        tcp[2] += s.segmentsSent.value();
        tcp[3] += s.segmentsReceived.value();
        tcp[4] += s.retransmits.value();
        tcp[5] += s.fastRetransmits.value();
        tcp[6] += s.rtoFires.value();
        tcp[7] += s.dupAcksSeen.value();
    }
    EXPECT_EQ(tcp[0], 2u * 64 * 1024);
    EXPECT_EQ(total("tcp.bytes_sent"), tcp[0]);
    EXPECT_EQ(total("tcp.bytes_received"), tcp[1]);
    EXPECT_EQ(total("tcp.segments_sent"), tcp[2]);
    EXPECT_EQ(total("tcp.segments_received"), tcp[3]);
    EXPECT_EQ(total("tcp.retransmits"), tcp[4]);
    EXPECT_EQ(total("tcp.fast_retransmits"), tcp[5]);
    EXPECT_EQ(total("tcp.rto_fires"), tcp[6]);
    EXPECT_EQ(total("tcp.dup_acks"), tcp[7]);

    // Block: the one frontend and the one disk.
    EXPECT_EQ(blkif.requestsCompleted(), 16u);
    EXPECT_GE(blkif.requestErrors(), 1u);
    EXPECT_EQ(total("blk.completed"), blkif.requestsCompleted());
    EXPECT_EQ(total("blk.errors"), blkif.requestErrors());
    EXPECT_EQ(total("disk.requests"), disk.requestsServed());

    // The transmit path of both stacks.
    EXPECT_EQ(total("net.tx.bytes"),
              server.stack.txBytes() + client.stack.txBytes());
    EXPECT_EQ(total("net.tx.copy_bytes"),
              server.stack.txCopyBytes() + client.stack.txCopyBytes());
}

} // namespace
} // namespace mirage
