/**
 * @file
 * Fleet observability demo: cold-boot a fleet of unikernel web
 * appliances through the toolstack, drive traffic at them, and read
 * the whole cloud's state back from one dom0-style monitor appliance
 * serving `GET /fleet`:
 *
 *   - per-domain request counts and latency quantiles,
 *   - the histogram-merged fleet-wide distribution (exact quantiles,
 *     not an average of per-domain p99s),
 *   - the per-phase cold-boot breakdown of every appliance,
 *   - SLO burn-rate state for the http objective.
 *
 * With --stall, one appliance answers slower than the latency target:
 * the multi-window burn-rate alert must fire (and auto-dump the flight
 * recorder when MIRAGE_FLIGHT is set). Without it, the run must stay
 * quiet. Exit status reflects both.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "protocols/http/telemetry.h"
#include "runtime/loop.h"

using namespace mirage;

int
main(int argc, char **argv)
{
    int domains = 8;
    bool stall = false;
    double slo_ms = 5.0;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--domains=", 10) == 0) {
            domains = std::atoi(argv[i] + 10);
        } else if (std::strcmp(argv[i], "--stall") == 0) {
            stall = true;
        } else if (std::strncmp(argv[i], "--slo-ms=", 9) == 0) {
            slo_ms = std::atof(argv[i] + 9);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--domains=N] [--stall] "
                         "[--slo-ms=D]\n",
                         argv[0]);
            return 2;
        }
    }
    if (domains < 1 || domains > 1000) {
        std::fprintf(stderr, "--domains in [1, 1000]\n");
        return 2;
    }

    // A /16 guest subnet holds the full 1000-appliance fleet.
    core::Cloud::Config cloud_cfg;
    cloud_cfg.netmask = net::Ipv4Addr(255, 255, 0, 0);
    core::Cloud cloud(cloud_cfg);

    // The http objective: 99 % of requests inside slo_ms. The windows
    // are sized for a run lasting a few hundred virtual milliseconds;
    // one stalled appliance in eight burns ~12.5x the budget, well
    // over the threshold.
    trace::SloTarget target;
    target.latencyTargetNs = u64(slo_ms * 1e6);
    target.objective = 0.99;
    target.fastWindow = Duration::millis(10);
    target.slowWindow = Duration::millis(50);
    target.burnThreshold = 8.0;
    cloud.slo().setTarget("http", target);

    // The monitor appliance is the fleet's dom0 window: /fleet, /top,
    // /metrics (registry + per-domain fleet series) on one listener.
    core::Guest &monitor =
        cloud.startUnikernel("monitor", net::Ipv4Addr(10, 0, 0, 100));
    http::HttpServer mon_srv(
        monitor.stack, 80,
        http::withTelemetry(cloud.telemetry(),
                            [](const http::HttpRequest &,
                               http::HttpServer::Responder respond) {
                                respond(http::HttpResponse::notFound());
                            }));

    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));

    // ---- Cold-boot the appliance fleet through the toolstack --------
    std::vector<std::unique_ptr<http::HttpServer>> servers;
    servers.resize(std::size_t(domains));
    std::vector<core::Guest *> appliances(std::size_t(domains), nullptr);
    // Printed in index order after the run.
    std::vector<xen::BootBreakdown> breakdowns(appliances.size());
    int ready = 0;
    bool fleet_ok = false, metrics_ok = false;
    u64 served = 0;
    std::function<void()> start_traffic; // defined below

    for (int i = 0; i < domains; i++) {
        std::string name = strprintf("web%d", i);
        // 10.0.(1+i/250).(1+i%250): clear of the monitor (10.0.0.100),
        // the client (10.0.0.9) and the gateway (10.0.0.254).
        net::Ipv4Addr ip(10, 0, u8(1 + i / 250), u8(1 + i % 250));
        bool stalled = stall && i == 0;
        cloud.bootUnikernel(
            name, ip, 32,
            [&, i, name, stalled](core::Guest &g, xen::BootBreakdown b) {
                appliances[std::size_t(i)] = &g;
                breakdowns[std::size_t(i)] = std::move(b);
                core::Guest *gp = &g;
                servers[std::size_t(i)] =
                    std::make_unique<http::HttpServer>(
                    g.stack, 80,
                    [&served, gp, stalled, slo_ms, name](
                        const http::HttpRequest &,
                        http::HttpServer::Responder respond) {
                        served++;
                        std::string body = "hello from " + name + "\n";
                        if (!stalled) {
                            respond(http::HttpResponse::text(200, body));
                            return;
                        }
                        // The induced breach: answer well past the
                        // latency target (requests still succeed, so
                        // this burns the latency budget, not the
                        // availability one).
                        gp->sched
                            .sleep(Duration::nanos(
                                i64(slo_ms * 1e6) * 10))
                            ->onComplete([respond, body](rt::Promise &) {
                                respond(
                                    http::HttpResponse::text(200, body));
                            });
                    });
                if (++ready == domains)
                    client.dom.engine().after(Duration::micros(2),
                                              [&] { start_traffic(); });
            });
    }

    // ---- Traffic + fleet readback -----------------------------------
    auto sessions = std::make_shared<
        std::vector<std::shared_ptr<http::HttpSession>>>();
    auto fetch_fleet = [&]() {
        auto holder =
            std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            client.stack, net::Ipv4Addr(10, 0, 0, 100), 80,
            [&, holder](Status st) {
                if (!st.ok())
                    return;
                auto session = *holder;
                http::HttpRequest fleet;
                fleet.method = "GET";
                fleet.path = "/fleet";
                session->request(fleet, [&](Result<http::HttpResponse>
                                                r) {
                    if (r.ok() && r.value().status == 200 &&
                        r.value().body.find("\"fleet\"") !=
                            std::string::npos &&
                        r.value().body.find("\"p99_ns\"") !=
                            std::string::npos &&
                        r.value().body.find("\"phases\"") !=
                            std::string::npos) {
                        fleet_ok = true;
                        std::printf("--- /fleet (in-sim) ---\n%s"
                                    "--- end /fleet ---\n",
                                    r.value().body.c_str());
                    }
                });
                http::HttpRequest prom;
                prom.method = "GET";
                prom.path = "/metrics";
                std::weak_ptr<http::HttpSession> weak = session;
                session->request(
                    prom, [&, weak](Result<http::HttpResponse> m) {
                        auto session = weak.lock();
                        if (!session)
                            return;
                        if (m.ok() && m.value().status == 200 &&
                            m.value().body.find(
                                "fleet_request_latency_ns_bucket{"
                                "domain=") != std::string::npos) {
                            metrics_ok = true;
                            std::printf(
                                "--- /metrics fleet series (in-sim): "
                                "%zu bytes, per-domain labels "
                                "present ---\n",
                                m.value().body.size());
                        }
                        session->close();
                    });
            });
    };

    const int rounds = domains * 15;
    auto tick = rt::asyncLoop<int>([&, sessions](
                                       int remaining,
                                       std::function<void(int)> next) {
        if (remaining == 0) {
            fetch_fleet();
            return;
        }
        auto &session =
            (*sessions)[std::size_t(remaining) % sessions->size()];
        http::HttpRequest get;
        get.method = "GET";
        get.path = "/";
        session->request(get, [](Result<http::HttpResponse>) {});
        client.sched.sleep(Duration::millis(1))
            ->onComplete([next = std::move(next),
                          remaining](rt::Promise &) {
                next(remaining - 1);
            });
    });

    start_traffic = [&, sessions]() {
        auto opened = std::make_shared<int>(0);
        for (int i = 0; i < domains; i++) {
            auto holder =
                std::make_shared<std::shared_ptr<http::HttpSession>>();
            *holder = http::HttpSession::open(
                client.stack,
                net::Ipv4Addr(10, 0, u8(1 + i / 250), u8(1 + i % 250)),
                80,
                [&, holder, opened, sessions](Status st) {
                    if (!st.ok()) {
                        std::fprintf(stderr, "session open failed\n");
                        return;
                    }
                    sessions->push_back(*holder);
                    if (++*opened == domains)
                        tick(rounds);
                });
        }
    };

    cloud.run();

    for (int i = 0; i < domains; i++) {
        if (!appliances[std::size_t(i)])
            continue;
        const xen::BootBreakdown &b = breakdowns[std::size_t(i)];
        std::printf("web%-5d ready at %.1f ms (toolstack %.1f + build %.1f "
                    "+ init %.1f)\n",
                    i, b.total().toSecondsF() * 1e3,
                    b.toolstack.toSecondsF() * 1e3,
                    b.build.toSecondsF() * 1e3,
                    b.guestInit.toSecondsF() * 1e3);
    }

    // ---- Verdict ------------------------------------------------------
    u64 slo_alerts =
        cloud.slo().find("http") ? cloud.slo().find("http")->alerts : 0;
    std::printf("\nfleet: %d appliances cold-booted (%llu tracked), "
                "%llu requests served\n",
                domains,
                (unsigned long long)cloud.boots().completedBoots(),
                (unsigned long long)served);
    std::printf("fleet p99 latency: %llu ns over %llu requests\n",
                (unsigned long long)cloud.hub().fleetLatency().quantile(
                    0.99),
                (unsigned long long)cloud.hub().fleetRequests());
    std::printf("slo: %llu burn-rate alert(s)\n",
                (unsigned long long)slo_alerts);

    bool ok = true;
    if (!fleet_ok || !metrics_ok) {
        std::fprintf(stderr, "fleet readback failed (fleet=%d "
                             "metrics=%d)\n",
                     fleet_ok, metrics_ok);
        ok = false;
    }
    // completedBoots() counts the tracker's retained history (bounded
    // at 256 records); the ready tally is exact at any fleet size.
    if (ready != domains) {
        std::fprintf(stderr, "expected %d ready appliances, got %d\n",
                     domains, ready);
        ok = false;
    }
    if (stall && slo_alerts == 0) {
        std::fprintf(stderr, "induced breach did not fire the "
                             "burn-rate alert\n");
        ok = false;
    }
    if (!stall && slo_alerts != 0) {
        std::fprintf(stderr, "burn-rate alert fired on a healthy "
                             "fleet\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
