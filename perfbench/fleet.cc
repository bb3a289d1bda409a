/**
 * @file
 * fleet_boot: bench_fleet_storm's 1000-domain storm driven through
 * Cloud::bootUnikernel with the checker on. Every
 * appliance is submitted at t=0 and probed the instant it is ready; one
 * op is one cold-boot-inclusive first response.
 *
 * The seed varies each appliance's memory size around 16 MiB (14, 16 or
 * 18 MiB, uniformly), which moves page setup and so every virtual row.
 * Seed 0 boots them all at 16 MiB: bench_fleet_storm's exact input.
 */

#include <atomic>
#include <memory>

#include "base/rand.h"
#include "common.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"

namespace perfbench {

using namespace mirage;

namespace {

constexpr int kDomains = 1000;
constexpr const char *kProbeBody = "up /probe\n";

std::vector<std::size_t>
memorySizes(u64 seed)
{
    std::vector<std::size_t> mib(kDomains, 16);
    if (seed != 0) {
        Rng rng(seed);
        for (auto &m : mib)
            m = 14 + 2 * std::size_t(rng.below(3));
    }
    return mib;
}

} // namespace

Rep
runFleet(const RepConfig &cfg)
{
    Rep rep;
    std::vector<std::size_t> mib = memorySizes(cfg.seed);

    Phase setup;
    Stamp t0;
    core::Cloud::Config cc;
    cc.netmask = net::Ipv4Addr(255, 255, 0, 0); // a /16 holds the fleet
    auto cloud = std::make_unique<core::Cloud>(cc);
    rep.ctor_s = wallNow() - t0.wall;
    if (cfg.traced) {
        cloud->tracer().setFlightCapacity(1u << 20);
        cloud->tracer().enable();
        cloud->profiler().enable();
        cloud->flows().setRecentCapacity(kDomains);
    }
    cloud->checker().enable();

    // Results land in per-domain slots (ready callbacks run on each
    // appliance's home shard; no two shards share an index).
    std::vector<std::unique_ptr<http::HttpServer>> servers(kDomains);
    std::vector<i64> first_ns(kDomains, -1);
    std::atomic<u64> failures{0};

    // The client's probe of appliance @p i: connect, GET /probe, check
    // the answer and stamp the virtual time it arrived.
    auto probe = [&](core::Guest &client, int i, net::Ipv4Addr ip) {
        SpanScope c("client.callback");
        auto holder = std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            client.stack, ip, 80, [&, i, holder](Status st) {
                SpanScope cb("client.callback");
                if (!st.ok()) {
                    failures++;
                    return;
                }
                http::HttpRequest get;
                get.method = "GET";
                get.path = "/probe";
                // `holder` keeps the session alive; the continuation
                // holds it weakly so the session doesn't own itself.
                std::weak_ptr<http::HttpSession> weak = *holder;
                (*holder)->request(get, [&, i, weak](
                                            Result<http::HttpResponse> r) {
                    SpanScope cb2("client.callback");
                    if (r.ok() && r.value().status == 200 &&
                        r.value().body == kProbeBody)
                        first_ns[std::size_t(i)] =
                            sim::Engine::current()->now().ns();
                    else
                        failures++;
                    if (auto s = weak.lock())
                        s->close();
                });
            });
    };

    double t1 = wallNow();
    {
        SpanScope provision("setup.provision");
        core::Guest &client = cloud->startUnikernel(
            "client", net::Ipv4Addr(10, 0, 0, 9));
        for (int i = 0; i < kDomains; i++) {
            net::Ipv4Addr ip(10, 0, u8(1 + i / 250), u8(1 + i % 250));
            cloud->bootUnikernel(
                strprintf("storm%d", i), ip, mib[std::size_t(i)],
                [&, i, ip](core::Guest &g, xen::BootBreakdown) {
                    SpanScope span("app.ready");
                    servers[std::size_t(i)] =
                        std::make_unique<http::HttpServer>(
                            g.stack, 80,
                            [fl = &cloud->flows()](
                                const http::HttpRequest &req,
                                http::HttpServer::Responder respond) {
                                SpanScope h("app.handler", fl->current());
                                respond(http::HttpResponse::text(
                                    200, "up " + req.path + "\n"));
                            });
                    // The probe hops to the client's home engine
                    // through the cross-shard mailbox.
                    sim::crossPost(client.dom.engine(), Duration::micros(2),
                                   [&, i, ip] { probe(client, i, ip); });
                });
        }
    }
    rep.provision_s = wallNow() - t1;
    rep.setup = setup.end();
    if (cfg.setup_only) {
        servers.clear();
        teardown(cloud, rep);
        return rep;
    }

    {
        SpanScope run("cloud.run");
        runTimed(*cloud, rep);
    }

    rep.attempted = kDomains;
    for (i64 t : first_ns) {
        if (t < 0)
            continue;
        rep.latency_ns.push_back(t); // submitted at t=0
        rep.payload_bytes += std::char_traits<char>::length(kProbeBody);
        rep.vt_ns = std::max(rep.vt_ns, t);
    }
    rep.failed = rep.attempted - rep.latency_ns.size();
    if (rep.failed > 0)
        rep.fail(strprintf("fleet: %llu of %d probes failed",
                           (unsigned long long)rep.failed, kDomains));
    rep.events = cloud->eventsRun();
    rep.checksum = cloud->shards().dispatchChecksum();
    checkClean(*cloud, rep);
    collectLayerCounters(*cloud, kDomains, rep);
    if (cfg.traced)
        collectTraced(*cloud, cfg, rep);

    servers.clear();
    teardown(cloud, rep);
    return rep;
}

} // namespace perfbench
