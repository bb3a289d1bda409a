/**
 * @file
 * The 1000-domain fleet storm (§4's parallel toolstack at scale):
 * cold-boot a fleet of web appliances through
 * the toolstack — all submitted at t=0, the storm — and fire the first
 * HTTP request at each appliance the instant it reports ready. The
 * headline numbers:
 *
 *   - first_response p50/p99 (virtual, *cold-boot-inclusive*: from
 *     submission through toolstack queueing, boot, connect and the
 *     first served response),
 *   - boot p50/p99 (virtual, toolstack + build + guest init),
 *   - events_run (virtual),
 *   - wall_events_per_sec (real time, next to runner_cores).
 *
 * The virtual rows are machine-independent, so CI gates them exactly
 * against BENCH_engine.json; the wall rows are informational.
 *
 *   bench_fleet_storm [--domains=N] [--json=FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_json.h"
#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"

using namespace mirage;

namespace {

/** Exact quantile of a sorted sample (nearest-rank). */
i64
quantile(const std::vector<i64> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::size_t idx = std::size_t(q * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    int domains = 1000;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--domains=", 10) == 0) {
            domains = std::atoi(argv[i] + 10);
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            // consumed by JsonReport
        } else {
            std::fprintf(stderr, "usage: %s [--domains=N] [--json=FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (domains < 1 || domains > 10000) {
        std::fprintf(stderr, "--domains in [1,10000]\n");
        return 2;
    }
    mirage::bench::JsonReport json(argc, argv);

    // A /16 holds the whole fleet: appliances live at 10.0.(1+i/250).
    // (1+i%250), clear of the client (10.0.0.9) and the computed
    // gateway (10.0.0.254).
    core::Cloud::Config cfg;
    cfg.netmask = net::Ipv4Addr(255, 255, 0, 0);
    core::Cloud cloud(cfg);
    cloud.checker().enable();

    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));

    std::vector<std::unique_ptr<http::HttpServer>> servers;
    servers.resize(std::size_t(domains));
    std::vector<i64> first_response_ns(std::size_t(domains), -1);
    std::vector<i64> boot_ns(std::size_t(domains), -1);
    u64 failures = 0;

    // All submissions land at t=0: the toolstack absorbs the whole
    // storm at once, so first-response latency includes its queueing.
    for (int i = 0; i < domains; i++) {
        std::string name = strprintf("storm%d", i);
        net::Ipv4Addr ip(10, 0, u8(1 + i / 250), u8(1 + i % 250));
        cloud.bootUnikernel(
            name, ip, 16,
            [&, i, ip](core::Guest &g, xen::BootBreakdown b) {
                boot_ns[std::size_t(i)] = b.total().ns();
                servers[std::size_t(i)] =
                    std::make_unique<http::HttpServer>(
                        g.stack, 80,
                        [](const http::HttpRequest &req,
                           http::HttpServer::Responder respond) {
                            respond(http::HttpResponse::text(
                                200, "up " + req.path + "\n"));
                        });
                // First request, fired the instant the appliance is
                // ready; its completion stamps the cold-boot-inclusive
                // latency.
                client.dom.engine().after(
                    Duration::micros(2), [&, i, ip] {
                        auto holder = std::make_shared<
                            std::shared_ptr<http::HttpSession>>();
                        *holder = http::HttpSession::open(
                            client.stack, ip, 80,
                            [&, i, holder](Status st) {
                                if (!st.ok()) {
                                    failures++;
                                    return;
                                }
                                auto session = *holder;
                                http::HttpRequest get;
                                get.method = "GET";
                                get.path = "/probe";
                                // `holder` keeps the session alive; the
                                // continuation holds it weakly so the
                                // session doesn't own its own callback.
                                std::weak_ptr<http::HttpSession> weak =
                                    session;
                                session->request(
                                    get,
                                    [&, i, weak](
                                        Result<http::HttpResponse> r) {
                                        if (r.ok() &&
                                            r.value().status == 200)
                                            first_response_ns
                                                [std::size_t(i)] =
                                                    cloud.engine()
                                                        .now()
                                                        .ns();
                                        else
                                            failures++;
                                        if (auto s = weak.lock())
                                            s->close();
                                    });
                            });
                    });
            });
    }

    auto t0 = std::chrono::steady_clock::now();
    cloud.run();
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // Drop unfilled slots (failed probes) before the quantile math.
    auto compact = [](std::vector<i64> &v) {
        v.erase(std::remove(v.begin(), v.end(), i64(-1)), v.end());
        std::sort(v.begin(), v.end());
    };
    compact(first_response_ns);
    compact(boot_ns);
    u64 events = cloud.eventsRun();
    double eps = wall_s > 0 ? double(events) / wall_s : 0;
    double fr_p50 = double(quantile(first_response_ns, 0.50)) / 1e6;
    double fr_p99 = double(quantile(first_response_ns, 0.99)) / 1e6;
    double boot_p50 = double(quantile(boot_ns, 0.50)) / 1e6;
    double boot_p99 = double(quantile(boot_ns, 0.99)) / 1e6;

    std::printf("fleet storm: %d domains\n", domains);
    // The BootTracker retains a bounded history (256 records); the
    // per-domain slots are the exact count at fleet scale.
    std::printf("  cold boots     %zu complete, p50 %.2f ms, "
                "p99 %.2f ms\n",
                boot_ns.size(), boot_p50, boot_p99);
    std::printf("  first response %zu ok (%llu failed), p50 %.2f ms, "
                "p99 %.2f ms (cold-boot-inclusive)\n",
                first_response_ns.size(), (unsigned long long)failures,
                fr_p50, fr_p99);
    std::printf("  events         %llu virtual events\n",
                (unsigned long long)events);
    std::printf("  wall           %.2f s, %.0f events/s\n", wall_s,
                eps);

    std::string name = strprintf("fleet_storm/domains=%d", domains);
    // The wall row only means anything next to the machine it ran on.
    long cores = sysconf(_SC_NPROCESSORS_ONLN);
    json.add(name, "runner_cores", double(cores > 0 ? cores : 1), "cores");
    json.add(name, "wall_events_per_sec", eps, "events/s");
    json.add(name, "events_run", double(events), "events");
    json.add(name, "first_response_ms", fr_p50, "ms", fr_p50, fr_p99);
    json.add(name, "boot_ms", boot_p50, "ms", boot_p50, boot_p99);
    json.add(name, "first_response_p99_ms", fr_p99, "ms");
    json.add(name, "boot_p99_ms", boot_p99, "ms");

    bool ok = failures == 0 &&
              first_response_ns.size() == std::size_t(domains) &&
              boot_ns.size() == std::size_t(domains) &&
              cloud.quiescent();
    if (!ok)
        std::fprintf(stderr, "fleet storm FAILED: boots=%zu "
                             "responses=%zu failures=%llu\n",
                     boot_ns.size(), first_response_ns.size(),
                     (unsigned long long)failures);
    return ok ? 0 : 1;
}
