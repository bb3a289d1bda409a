/**
 * @file
 * Fleet observability tests: HdrHistogram merge exactness (fleet
 * quantiles == pooled-population quantiles), SLO multi-window burn-rate
 * alerting (fire / latch / re-arm / re-fire), boot-phase attribution
 * through the toolstack, the TelemetryHub per-domain aggregation, the
 * `GET /fleet` endpoint served in-sim, and replay: an HTTP fleet and a
 * toolstack boot storm rerun to the same events, dispatch checksum,
 * clock and flows, pinned to recorded values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "protocols/http/telemetry.h"
#include "trace/hdr.h"
#include "trace/telemetry.h"

namespace mirage::trace {
namespace {

// Deterministic value stream with a long-tailed shape (xorshift; no
// wall-clock randomness in tests).
u64
nextValue(u64 *state)
{
    u64 x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    return (x % 1000000) + (x % 97 == 0 ? 50000000 : 0);
}

TEST(HdrHistogramTest, MergeEqualsPooledPopulation)
{
    // Shard the same population three ways; the merged histogram must
    // agree with the pooled one on every statistic, bucket for bucket.
    HdrHistogram shards[3], pooled;
    u64 state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 30000; i++) {
        u64 v = nextValue(&state);
        shards[i % 3].record(v);
        pooled.record(v);
    }
    HdrHistogram merged;
    for (const HdrHistogram &s : shards)
        merged.merge(s);

    EXPECT_EQ(merged.count(), pooled.count());
    EXPECT_EQ(merged.sum(), pooled.sum());
    EXPECT_EQ(merged.min(), pooled.min());
    EXPECT_EQ(merged.max(), pooled.max());
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(merged.quantile(q), pooled.quantile(q)) << "q=" << q;
    for (std::size_t i = 0; i < HdrHistogram::bucketCount; i++)
        ASSERT_EQ(merged.bucketCountAt(i), pooled.bucketCountAt(i))
            << "bucket " << i;
}

TEST(HdrHistogramTest, BucketBoundsAndRelativeError)
{
    // Small values are exact; large values land in a bucket whose upper
    // bound over-estimates by at most one sub-bucket (~3.2 %).
    for (u64 v : {u64(0), u64(1), u64(31)})
        EXPECT_EQ(HdrHistogram::bucketUpperBound(
                      HdrHistogram::bucketIndex(v)),
                  v);
    u64 state = 42;
    for (int i = 0; i < 10000; i++) {
        u64 v = nextValue(&state) + 32;
        u64 ub = HdrHistogram::bucketUpperBound(
            HdrHistogram::bucketIndex(v));
        ASSERT_GE(ub, v);
        ASSERT_LE(double(ub - v), 0.032 * double(v) + 1) << "v=" << v;
    }
}

TEST(SloTrackerTest, BurnRateFiresLatchesRearmsAndRefires)
{
    Telemetry t;
    SloTracker &slo = t.slo;
    SloTarget target;
    target.latencyTargetNs = 1000000; // 1 ms
    target.objective = 0.99;
    target.fastWindow = Duration::millis(10);
    target.slowWindow = Duration::millis(50);
    target.burnThreshold = 8.0;
    slo.setTarget("http", target);
    const Profiler &profiler = t.profiler;

    auto at = [](i64 ms) { return TimePoint(ms * 1000000); };

    // A healthy minute of traffic: everything under target, no alert.
    for (i64 ms = 0; ms < 60; ms++)
        slo.record("http", 500000, false, at(ms));
    EXPECT_EQ(slo.alerts(), 0u);
    EXPECT_EQ(profiler.alerts(), 0u);

    // Sustained breach: every request blows the latency target. Both
    // windows saturate, the alert fires exactly once (latched), as one
    // `slo_burn` profiler alert naming the kind.
    for (i64 ms = 60; ms < 120; ms++)
        slo.record("http", 20000000, false, at(ms));
    EXPECT_EQ(slo.alerts(), 1u);
    EXPECT_EQ(profiler.alerts(), 1u);
    ASSERT_EQ(profiler.alertLog().size(), 1u);
    EXPECT_EQ(profiler.alertLog()[0].rfind("slo_burn: http: ", 0), 0u)
        << profiler.alertLog()[0];
    const SloTracker::State *st = slo.find("http");
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->alerting);
    EXPECT_GE(st->fast_burn, 8.0);
    EXPECT_GE(st->slow_burn, 8.0);

    // Recovery: good traffic long enough that the fast window drains
    // its bad slices — the latch re-arms.
    for (i64 ms = 120; ms < 180; ms++)
        slo.record("http", 500000, false, at(ms));
    st = slo.find("http");
    EXPECT_FALSE(st->alerting);
    EXPECT_EQ(slo.alerts(), 1u);

    // A second sustained breach pages again.
    for (i64 ms = 180; ms < 240; ms++)
        slo.record("http", 20000000, false, at(ms));
    EXPECT_EQ(slo.alerts(), 2u);
    EXPECT_EQ(profiler.alerts(), 2u);

    // Failed requests burn the budget even when fast.
    Telemetry t_avail;
    SloTracker &avail = t_avail.slo;
    SloTarget a = target;
    a.latencyTargetNs = 0; // latency never scores bad
    avail.setTarget("http", a);
    for (i64 ms = 0; ms < 60; ms++)
        avail.record("http", 100, true, at(ms));
    EXPECT_EQ(avail.alerts(), 1u);

    std::string j = slo.json();
    EXPECT_NE(j.find("\"kind\":\"http\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"alerts\":2"), std::string::npos) << j;
}

TEST(SloTrackerTest, EvaluateRearmsWithoutTraffic)
{
    // A breached-then-silent service must still re-arm: time passing
    // empties the windows even when no request arrives.
    Telemetry t;
    SloTracker &slo = t.slo;
    SloTarget target;
    target.latencyTargetNs = 1000000;
    target.objective = 0.99;
    target.fastWindow = Duration::millis(10);
    target.slowWindow = Duration::millis(50);
    target.burnThreshold = 8.0;
    slo.setTarget("http", target);
    auto at = [](i64 ms) { return TimePoint(ms * 1000000); };
    for (i64 ms = 0; ms < 60; ms++)
        slo.record("http", 20000000, false, at(ms));
    ASSERT_EQ(slo.alerts(), 1u);
    ASSERT_TRUE(slo.find("http")->alerting);
    slo.evaluate(at(500));
    EXPECT_FALSE(slo.find("http")->alerting);
}

TEST(BootTrackerTest, ToolstackBootDecomposesIntoPhases)
{
    Telemetry t;
    BootTracker &boots = t.boots;
    sim::Engine engine(&t);
    xen::Hypervisor hv(engine);
    xen::Toolstack ts(hv, xen::Toolstack::Mode::Synchronous);
    ts.boot({"uk", xen::GuestKind::Unikernel, 128, 1, nullptr},
            [](xen::Domain &, xen::BootBreakdown) {});
    engine.run();

    EXPECT_EQ(boots.started(), 1u);
    EXPECT_EQ(boots.completedBoots(), 1u);
    ASSERT_EQ(boots.records().size(), 1u);
    const BootTracker::Record &r = boots.records().front();
    EXPECT_EQ(r.domain, "uk");
    EXPECT_GE(r.ready_ns, 0);
    EXPECT_FALSE(r.done); // done means first request served; none here
    ASSERT_GT(r.totalNs(), 0);

    // The unikernel bring-up phases, each with nonzero duration,
    // summing to >= 95 % of the boot (exactly 100 % by construction).
    std::vector<std::string> want = {"toolstack",   "build",
                                     "layout",      "page_setup",
                                     "device_connect", "stack_up"};
    i64 sum = 0;
    for (const std::string &name : want) {
        bool found = false;
        for (const BootTracker::Phase &p : r.phases) {
            if (p.name != name)
                continue;
            found = true;
            EXPECT_GT(p.dur_ns, 0) << name;
            sum += p.dur_ns;
        }
        EXPECT_TRUE(found) << "missing phase " << name;
    }
    EXPECT_GE(sum * 100, r.totalNs() * 95);
    EXPECT_LE(sum, r.totalNs());

    // Histograms fed once per phase and once for the total, in the
    // registry the rollup accessors read.
    EXPECT_EQ(boots.totalHistogram().count(), 1u);
    EXPECT_EQ(t.metrics.findHistogram("boot.total_ns")->count(), 1u);
    auto phases = boots.phaseHistogramsSnapshot();
    ASSERT_EQ(phases.count("build"), 1u);
    EXPECT_EQ(phases.at("build").count(), 1u);
    EXPECT_EQ(phases.count("total"), 0u)
        << "whole-boot spans are not phases";

    std::string j = boots.json();
    EXPECT_NE(j.find("\"domain\":\"uk\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"stack_up\""), std::string::npos) << j;
}

TEST(BootTrackerTest, LinuxModelBootsReportCoarsePhases)
{
    Telemetry t;
    BootTracker &boots = t.boots;
    sim::Engine engine(&t);
    xen::Hypervisor hv(engine);
    xen::Toolstack ts(hv, xen::Toolstack::Mode::Synchronous);
    ts.boot({"deb", xen::GuestKind::LinuxDebianApache, 256, 1, nullptr},
            [](xen::Domain &, xen::BootBreakdown) {});
    engine.run();
    ASSERT_EQ(boots.records().size(), 1u);
    const BootTracker::Record &r = boots.records().front();
    i64 sum = 0;
    for (const BootTracker::Phase &p : r.phases)
        sum += p.dur_ns;
    EXPECT_GE(sum * 100, r.totalNs() * 95);
    std::string j = boots.json();
    EXPECT_NE(j.find("\"kernel_boot\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"services\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"app_start\""), std::string::npos) << j;
}

TEST(TelemetryHubTest, PerDomainAggregationAndExactFleetQuantiles)
{
    Telemetry t;
    TelemetryHub &hub = t.hub;
    HdrHistogram pooled;
    u64 state = 7;
    auto feed = [&](const std::string &domain, int n, bool failed) {
        for (int i = 0; i < n; i++) {
            FlowTracker::Flow f;
            f.kind = "http";
            f.domain = domain;
            f.start_ns = 0;
            f.end_ns = i64(nextValue(&state));
            f.failed = failed;
            pooled.record(u64(f.end_ns));
            hub.onFlowDone(f);
        }
    };
    feed("web0", 4000, false);
    feed("web1", 2000, false);
    feed("web2", 100, true);

    ASSERT_EQ(hub.domains().size(), 3u);
    EXPECT_EQ(hub.domains().at("web0").requests, 4000u);
    EXPECT_EQ(hub.domains().at("web2").errors, 100u);
    EXPECT_EQ(hub.fleetRequests(), 6100u);
    EXPECT_EQ(hub.fleetErrors(), 100u);

    // The dom0-side rollup must equal the pooled population exactly —
    // the merge guarantee the whole hub design rests on.
    HdrHistogram fleet = hub.fleetLatency();
    EXPECT_EQ(fleet.count(), pooled.count());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(fleet.quantile(q), pooled.quantile(q)) << "q=" << q;

    // Untagged flows are kept, under a sentinel domain.
    FlowTracker::Flow anon;
    anon.kind = "http";
    anon.end_ns = 1000;
    hub.onFlowDone(anon);
    EXPECT_EQ(hub.domains().count("(untagged)"), 1u);

    // fleetJson renders with every sibling still empty.
    std::string j = hub.fleetJson();
    EXPECT_NE(j.find("\"domains\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"fleet\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"web1\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"p99_ns\""), std::string::npos) << j;

    std::string prom = hub.toPrometheus();
    EXPECT_NE(prom.find("fleet_requests_total{domain=\"web0\"} 4000"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("fleet_errors_total{domain=\"web2\"} 100"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("fleet_request_latency_ns_bucket{domain="),
              std::string::npos)
        << prom;
}

// End-to-end golden response: cold-boot appliances through the
// toolstack, drive requests, then read `GET /fleet` over in-sim HTTP
// from a monitor appliance and check the document's structure.
TEST(FleetEndpointTest, FleetDocumentServedInSim)
{
    core::Cloud cloud;
    trace::SloTarget target;
    target.latencyTargetNs = 5000000;
    target.objective = 0.99;
    cloud.slo().setTarget("http", target);

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

    std::vector<std::unique_ptr<http::HttpServer>> servers;
    int responses = 0;
    std::string fleet_body, prom_body;
    auto query_fleet = [&]() {
        http::httpGet(client.stack, net::Ipv4Addr(10, 0, 0, 100), 80,
                      "/fleet", [&](Result<http::HttpResponse> r) {
                          ASSERT_TRUE(r.ok());
                          EXPECT_EQ(r.value().status, 200);
                          fleet_body = r.value().body;
                      });
        http::httpGet(client.stack, net::Ipv4Addr(10, 0, 0, 100), 80,
                      "/metrics", [&](Result<http::HttpResponse> r) {
                          ASSERT_TRUE(r.ok());
                          prom_body = r.value().body;
                      });
    };
    for (int i = 0; i < 2; i++) {
        std::string name = "web" + std::to_string(i);
        net::Ipv4Addr ip(10, 0, 0, u8(10 + i));
        cloud.bootUnikernel(
            name, ip, 32,
            [&, ip](core::Guest &g, xen::BootBreakdown) {
                servers.push_back(std::make_unique<http::HttpServer>(
                    g.stack, 80,
                    [](const http::HttpRequest &, auto respond) {
                        respond(http::HttpResponse::text(200, "ok\n"));
                    }));
                for (int r = 0; r < 4; r++)
                    http::httpGet(client.stack, ip, 80, "/",
                                  [&](Result<http::HttpResponse> rr) {
                                      if (rr.ok() && ++responses == 8)
                                          query_fleet();
                                  });
            });
    }
    cloud.run();

    ASSERT_EQ(responses, 8);
    ASSERT_FALSE(fleet_body.empty());
    // Golden structure: per-domain sections, fleet rollup, boot
    // breakdown with the unikernel phases, SLO state.
    for (const char *key :
         {"\"domains\"", "\"fleet\"", "\"boot\"", "\"slo\"",
          "\"web0\"", "\"web1\"", "\"p99_ns\"", "\"phases\"",
          "\"device_connect\"", "\"stack_up\"", "\"first_request\"",
          "\"kind\":\"http\""})
        EXPECT_NE(fleet_body.find(key), std::string::npos)
            << "missing " << key << " in:\n" << fleet_body;

    EXPECT_EQ(cloud.boots().completedBoots(), 2u);
    // Both appliances served their first request after cold boot.
    EXPECT_EQ(cloud.boots().firstRequestHistogram().count(), 2u);
    // The healthy fleet never paged.
    EXPECT_EQ(cloud.slo().alerts(), 0u);
    // Fleet series rides along on /metrics with domain labels.
    EXPECT_NE(prom_body.find("fleet_request_latency_ns_bucket{domain="),
              std::string::npos);
}

// ---- Replay: a run is a pure function of its seed --------------------

struct FlowSnap
{
    u64 id;
    std::string kind;
    std::string detail;
    std::string domain;
    i64 start_ns;
    i64 end_ns;
    std::size_t stages;
    bool done;

    bool operator==(const FlowSnap &) const = default;
};

struct FleetRun
{
    int completed = 0;
    u64 events = 0;
    u64 checksum = 0;
    i64 now_ns = 0;
    std::vector<FlowSnap> flows; //!< sorted by id

    bool operator==(const FleetRun &) const = default;
};

/** A small HTTP fleet: 3 servers, 3 clients, 4 keep-alive requests
 *  each. */
FleetRun
runHttpFleet()
{
    core::Cloud cloud;
    std::vector<core::Guest *> servers, clients;
    std::vector<std::unique_ptr<http::HttpServer>> webs;
    for (int i = 0; i < 3; i++) {
        servers.push_back(&cloud.startUnikernel(
            "server" + std::to_string(i), net::Ipv4Addr(10, 0, 0, u8(10 + i))));
        clients.push_back(&cloud.startUnikernel(
            "client" + std::to_string(i), net::Ipv4Addr(10, 0, 0, u8(20 + i))));
    }
    for (int i = 0; i < 3; i++) {
        webs.push_back(std::make_unique<http::HttpServer>(
            servers[i]->stack, 80,
            [](const http::HttpRequest &req, auto respond) {
                respond(http::HttpResponse::text(
                    200, "echo:" + req.path + std::string(512, 'y')));
            }));
    }

    FleetRun r;
    for (int i = 0; i < 3; i++) {
        auto holder =
            std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            clients[i]->stack, net::Ipv4Addr(10, 0, 0, u8(10 + i)), 80,
            [&r, holder, i](Status st) {
                ASSERT_TRUE(st.ok());
                for (int q = 0; q < 4; q++) {
                    http::HttpRequest req;
                    req.method = "GET";
                    req.path = "/c" + std::to_string(i) + "/q" +
                               std::to_string(q);
                    (*holder)->request(
                        req, [&r](Result<http::HttpResponse> resp) {
                            if (resp.ok())
                                r.completed++;
                        });
                }
            });
    }
    cloud.run();

    r.events = cloud.eventsRun();
    r.checksum = cloud.engine().dispatchChecksum();
    r.now_ns = cloud.engine().now().ns();
    for (const FlowTracker::Flow &f : cloud.flows().recent())
        r.flows.push_back(FlowSnap{f.id, f.kind, f.detail, f.domain,
                                   f.start_ns, f.end_ns, f.stages.size(),
                                   f.done});
    std::sort(r.flows.begin(), r.flows.end(),
              [](const FlowSnap &a, const FlowSnap &b) { return a.id < b.id; });
    return r;
}

TEST(ReplayTest, HttpFleetReplaysToPinnedValues)
{
    FleetRun one = runHttpFleet();
    FleetRun two = runHttpFleet();
    EXPECT_TRUE(one == two) << "two runs of one seed diverged";

    // Pinned: event causal order, counts, final clock and the flow
    // snapshot down to ids and stage counts.
    EXPECT_EQ(one.completed, 12);
    EXPECT_EQ(one.events, 3158u);
    EXPECT_EQ(one.checksum, 0x221e80bd9d36ed1aull);
    EXPECT_EQ(one.now_ns, 1'000'000'000);
    const std::vector<FlowSnap> pinned = {
        {53565558, "http", "GET /c0/q1", "server0", 86769, 143714, 4, true},
        {199629286, "http", "GET /c2/q3", "server2", 92539, 155413, 4, true},
        {400465504, "http", "GET /c0/q2", "server0", 89739, 149738, 4, true},
        {1212542432, "http", "GET /c0/q3", "server0", 92634, 155508, 4, true},
        {1364741968, "http", "GET /c2/q1", "server2", 86674, 143619, 4, true},
        {1549922102, "http", "GET /c1/q2", "server1", 89739, 149738, 4, true},
        {2050137897, "http", "GET /c1/q0", "server1", 71009, 137504, 4, true},
        {2556822967, "http", "GET /c1/q3", "server1", 92634, 155508, 4, true},
        {3256901649, "http", "GET /c0/q0", "server0", 71009, 137504, 4, true},
        {3396251494, "http", "GET /c1/q1", "server1", 86769, 143714, 4, true},
        {3862346070, "http", "GET /c2/q2", "server2", 89644, 149643, 4, true},
        {4097763923, "http", "GET /c2/q0", "server2", 71009, 137409, 4, true},
    };
    ASSERT_EQ(one.flows.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); i++)
        EXPECT_TRUE(one.flows[i] == pinned[i])
            << "flow " << i << " (id " << one.flows[i].id << ")";
}

struct BootStormRun
{
    std::vector<i64> first_response_ns; //!< per domain, -1 = no answer
    u64 checksum = 0;
    u64 events = 0;

    bool operator==(const BootStormRun &) const = default;
};

/** Cold-boot @p domains appliances through the toolstack at t=0 and
 *  probe each once from a client the instant it is ready. */
BootStormRun
runBootStorm(int domains)
{
    core::Cloud cloud;
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 200));

    BootStormRun r;
    r.first_response_ns.assign(std::size_t(domains), -1);
    std::vector<std::unique_ptr<http::HttpServer>> servers(
        static_cast<std::size_t>(domains));
    for (int i = 0; i < domains; i++) {
        net::Ipv4Addr ip(10, 0, 0, u8(1 + i));
        cloud.bootUnikernel(
            "boot" + std::to_string(i), ip, 16,
            [&, i, ip](core::Guest &g, xen::BootBreakdown) {
                servers[std::size_t(i)] = std::make_unique<http::HttpServer>(
                    g.stack, 80,
                    [](const http::HttpRequest &req, auto respond) {
                        respond(http::HttpResponse::text(200, req.path));
                    });
                cloud.engine().after(Duration::micros(2), [&, i, ip] {
                    auto holder = std::make_shared<
                        std::shared_ptr<http::HttpSession>>();
                    *holder = http::HttpSession::open(
                        client.stack, ip, 80, [&, i, holder](Status st) {
                            ASSERT_TRUE(st.ok());
                            http::HttpRequest get;
                            get.method = "GET";
                            get.path = "/probe";
                            std::weak_ptr<http::HttpSession> weak = *holder;
                            (*holder)->request(
                                get, [&, i, weak](
                                         Result<http::HttpResponse> resp) {
                                    if (resp.ok())
                                        r.first_response_ns[std::size_t(i)] =
                                            cloud.engine().now().ns();
                                    if (auto s = weak.lock())
                                        s->close();
                                });
                        });
                });
            });
    }
    cloud.run();
    r.checksum = cloud.engine().dispatchChecksum();
    r.events = cloud.eventsRun();
    return r;
}

TEST(ReplayTest, ToolstackBootStormReplaysToPinnedValues)
{
    const int kDomains = 64;
    BootStormRun one = runBootStorm(kDomains);
    BootStormRun two = runBootStorm(kDomains);
    EXPECT_TRUE(one == two) << "two runs of one seed diverged";

    EXPECT_EQ(one.events, 90111u);
    EXPECT_EQ(one.checksum, 0xd6497c8c03a8d813ull);
    ASSERT_EQ(one.first_response_ns.size(), std::size_t(kDomains));
    i64 sum = 0;
    for (i64 ns : one.first_response_ns) {
        ASSERT_GE(ns, 0) << "an appliance never answered";
        sum += ns;
    }
    EXPECT_EQ(*std::min_element(one.first_response_ns.begin(),
                                one.first_response_ns.end()),
              40238847);
    EXPECT_EQ(*std::max_element(one.first_response_ns.begin(),
                                one.first_response_ns.end()),
              40910632);
    EXPECT_EQ(sum, 2595712534);
}

} // namespace
} // namespace mirage::trace
