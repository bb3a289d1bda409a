/**
 * @file
 * Unit tests for the virtual-time profiler: the ambient scope stack,
 * charge attribution and folded-stack export, engine scope restore
 * across event hops, sim::Cpu run/steal accounting, per-domain
 * DomainStats (rings, event channels, GC pause histograms), the
 * watchdog alerts (gc_pause, ring_full, stall), the xentop snapshot,
 * and the flow-attribution regression for the polled netif rx path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "runtime/gc_heap.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "trace/telemetry.h"

namespace mirage::trace {
namespace {

TEST(ProfScopeTest, PushDescendsAndScopeRestores)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    EXPECT_EQ(p.current(), 0u);
    {
        ProfScope outer(&p, "app");
        EXPECT_NE(p.current(), 0u);
        Profiler::ScopeId app = p.current();
        {
            ProfScope inner(&p, "http");
            EXPECT_NE(p.current(), app);
        }
        EXPECT_EQ(p.current(), app) << "inner scope must restore";
        Profiler::ScopeId http = 0;
        {
            ProfScope again(&p, "http");
            http = p.current();
        }
        {
            ProfScope again(&p, "http");
            EXPECT_EQ(p.current(), http)
                << "same label under same parent must intern";
        }
    }
    EXPECT_EQ(p.current(), 0u);
}

TEST(ProfScopeTest, DisabledAndNullProfilersAreNoOps)
{
    {
        ProfScope s(nullptr, "app"); // must not crash
    }
    Telemetry t;
    Profiler &p = t.profiler; // not enabled
    {
        ProfScope s(&p, "app");
        EXPECT_EQ(p.current(), 0u);
    }
    EXPECT_EQ(p.push("x"), 0u) << "push is a no-op while disabled";
}

TEST(ProfilerChargeTest, AggregatesSelfTotalAndSamples)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    {
        ProfScope app(&p, "app");
        p.charge("work", 100, 0);
        p.charge("work", 50, 0);
        {
            ProfScope gc(&p, "gc");
            p.charge("scan", 30, 0);
        }
    }
    EXPECT_EQ(p.totalNs(), 180u);
    EXPECT_EQ(p.selfNs("app;work"), 150u);
    EXPECT_EQ(p.samples("app;work"), 2u);
    EXPECT_EQ(p.selfNs("app;gc;scan"), 30u);
    EXPECT_EQ(p.selfNs("app;gc"), 0u) << "interior nodes have no self";
    EXPECT_EQ(p.selfNs("no;such;path"), 0u);
}

TEST(ProfilerChargeTest, AttributionSeparatesGenericRootBucket)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    p.charge("cpu.work", 100, 0); // root-level generic: unattributed
    {
        ProfScope app(&p, "app");
        p.charge("cpu.work", 300, 0); // scoped: attributed
    }
    EXPECT_EQ(p.totalNs(), 400u);
    EXPECT_EQ(p.unattributedNs(), 100u);
    EXPECT_DOUBLE_EQ(p.attributedFraction(), 0.75);

    Telemetry te;
    Profiler &empty = te.profiler;
    EXPECT_DOUBLE_EQ(empty.attributedFraction(), 1.0)
        << "nothing charged counts as fully attributed";
}

TEST(ProfilerFoldedTest, FoldedLinesAndWriteFolded)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    {
        ProfScope app(&p, "app");
        ProfScope http(&p, "http");
        p.charge("parse", 42, 0);
    }
    p.charge("cpu.work", 7, 0);
    std::string folded = p.folded();
    EXPECT_NE(folded.find("app;http;parse 42\n"), std::string::npos)
        << folded;
    EXPECT_NE(folded.find("cpu.work 7\n"), std::string::npos) << folded;

    std::string path = ::testing::TempDir() + "prof_test.folded";
    ASSERT_TRUE(p.writeFolded(path).ok());
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    buf[n] = 0;
    EXPECT_EQ(std::string(buf), folded);
}

TEST(ProfilerEngineTest, DispatchRestoresScheduledScope)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    sim::Engine engine(&t);

    // Schedule work while inside a scope; the charge must land under
    // that scope even though the scope has long exited by dispatch
    // time and another event runs in between with no scope at all.
    {
        ProfScope app(&p, "app");
        engine.after(Duration::micros(10), [&] {
            p.charge("late", 11, engine.now().ns());
        });
    }
    engine.after(Duration::micros(5), [&] {
        EXPECT_EQ(p.current(), 0u)
            << "unscoped event must not inherit a stale scope";
        p.charge("cpu.work", 5, engine.now().ns());
    });
    engine.run();
    EXPECT_EQ(p.selfNs("app;late"), 11u);
    EXPECT_EQ(p.unattributedNs(), 5u);
}

TEST(ProfilerCpuTest, SubmitChargesRunStealAndScope)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    sim::Engine engine(&t);
    sim::Cpu cpu(engine, "vcpu0");
    DomainStats &d = p.domain("guest");
    cpu.setStats(&d);

    int done = 0;
    {
        ProfScope app(&p, "app");
        // Second submit queues behind the first: 100 ns of steal.
        cpu.submit(Duration::nanos(100), [&] { done++; }, "unit.work");
        cpu.submit(Duration::nanos(50), [&] { done++; }, "unit.work");
    }
    engine.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(d.run_ns.value(), 150u);
    EXPECT_EQ(d.steal_ns.value(), 100u);
    EXPECT_EQ(p.selfNs("app;unit.work"), 150u);
    EXPECT_EQ(p.samples("app;unit.work"), 2u);
}

TEST(DomainStatsTest, NoteRingTracksHwmAndAlertsOnce)
{
    Telemetry t;
    Profiler &p = t.profiler;
    DomainStats &d = p.domain("guest");
    RingMark &tx = d.ring("netback.tx");
    EXPECT_EQ(&d.ring("netback.tx"), &tx) << "one mark per ring name";
    d.noteRing(tx, 3, 32);
    d.noteRing(tx, 7, 32);
    d.noteRing(tx, 5, 32);
    EXPECT_EQ(tx.hwm, 7u);
    EXPECT_EQ(p.alerts(), 0u);

    d.noteRing(tx, 32, 32);
    d.noteRing(tx, 32, 32);
    EXPECT_EQ(p.alerts(), 1u) << "full alert must be one-shot";
    ASSERT_EQ(p.alertLog().size(), 1u);
    EXPECT_NE(p.alertLog()[0].find("ring_full"), std::string::npos);
    EXPECT_NE(p.alertLog()[0].find("netback.tx"), std::string::npos);
}

TEST(DomainStatsTest, PostedBufferRingsDoNotAlertOnFull)
{
    Telemetry t;
    Profiler &p = t.profiler;
    DomainStats &d = p.domain("guest");
    // An rx ring full of posted buffers is the healthy state.
    d.noteRing(d.ring("netback.rx"), 32, 32, false);
    EXPECT_EQ(d.rings.at("netback.rx").hwm, 32u);
    EXPECT_EQ(p.alerts(), 0u);
}

TEST(ProfilerAlertTest, AlertCountsAndLogsKindAndDetail)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.alert("stall", "no progress for 500 ms");
    EXPECT_EQ(p.alerts(), 1u);
    EXPECT_EQ(t.metrics.findCounter("profile.alerts")->value(), 1u);
    // The log line carries both the kind and the detail.
    ASSERT_EQ(p.alertLog().size(), 1u);
    EXPECT_EQ(p.alertLog()[0], "stall: no progress for 500 ms");
}

TEST(ProfilerGcTest, PauseAlertRespectsThreshold)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.checkGcPause(1'000'000, "minor", "guest");
    EXPECT_EQ(p.alerts(), 0u) << "threshold 0 disables the watchdog";

    p.setGcPauseAlertThreshold(Duration::micros(100));
    p.checkGcPause(99'999, "minor", "guest");
    EXPECT_EQ(p.alerts(), 0u);
    p.checkGcPause(100'000, "major", "guest");
    EXPECT_EQ(p.alerts(), 1u);
    EXPECT_NE(p.alertLog()[0].find("gc_pause"), std::string::npos);
    EXPECT_NE(p.alertLog()[0].find("major"), std::string::npos);
}

TEST(ProfilerTopTest, TopJsonHasPerDomainSections)
{
    Telemetry t;
    Profiler &p = t.profiler;
    DomainStats &d = p.domain("guest");
    d.run_ns.set(1000);
    d.steal_ns.set(200);
    d.blocked_ns.set(300);
    d.polls.set(4);
    d.notifies_sent.set(5);
    d.notifies_received.set(6);
    d.noteRing(d.ring("blkback"), 2, 32);
    d.ring("netback.tx"); // resolved, never noted: not listed
    for (int i = 0; i < 3; i++)
        d.gc_minor_pause_ns.record(1000);

    std::string json = p.topJson();
    for (const char *key :
         {"\"domains\"", "\"guest\"", "\"run_ns\":1000",
          "\"steal_ns\":200", "\"blocked_ns\":300", "\"polls\":4",
          "\"evtchn\"", "\"sent\":5", "\"received\":6", "\"blkback\"",
          "\"hwm\":2", "\"capacity\":32", "\"gc\"", "\"minor\":3",
          "\"minor_pause\"", "\"p99_ns\"", "\"attributed_fraction\"",
          "\"alerts\""})
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in " << json;

    EXPECT_EQ(json.find("netback.tx"), std::string::npos) << json;

    std::string text = p.topText();
    EXPECT_NE(text.find("guest"), std::string::npos);
    EXPECT_NE(text.find("blkback"), std::string::npos);
    EXPECT_EQ(text.find("netback.tx"), std::string::npos) << text;
}

TEST(ProfilerCounterTrackTest, ChargesEmitCounterEvents)
{
    Telemetry t;
    t.tracer.enable();
    Profiler &p = t.profiler;
    p.enable();
    p.setSampleInterval(Duration::micros(1));
    {
        ProfScope app(&p, "app");
        p.charge("work", 100, 0);
        p.charge("work", 100, 2'000); // past the sample interval
    }
    std::string json = t.tracer.toChromeJson();
    EXPECT_NE(json.find("prof.cpu_ns"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"app\""), std::string::npos)
        << "counter args must break charge down by top-level scope";
}

TEST(GcHeapProfileTest, PauseHistogramsAndAttributionMatch)
{
    Telemetry t;
    Profiler &p = t.profiler;
    p.enable();
    sim::Engine engine(&t);
    sim::Cpu cpu(engine, "guest");
    DomainStats &d = p.domain("guest");
    cpu.setStats(&d);

    // Small minor heap so live allocations force promotion quickly.
    rt::GcHeap heap(cpu, pvboot::MemoryBackend::xenExtent(), 64 * 1024);
    std::vector<rt::CellRef> live;
    for (int i = 0; i < 128; i++)
        live.push_back(heap.alloc(1024)); // triggers collections
    heap.collectMinor();

    EXPECT_GT(heap.stats().minorCollections.value(), 0u);
    EXPECT_GT(heap.stats().promotedBytes.value(), 0u);
    EXPECT_EQ(d.gc_promoted_bytes.value(), heap.stats().promotedBytes.value());
    EXPECT_EQ(d.gc_minor_pause_ns.count(),
              heap.stats().minorCollections.value());
    EXPECT_GT(d.gc_minor_pause_ns.max(), 0u);

    // Attribution: the pause time charged under rt/gc must equal the
    // pauses the histogram saw, to the nanosecond.
    EXPECT_EQ(p.selfNs("rt/gc;gc.minor"), d.gc_minor_pause_ns.sum());
    EXPECT_EQ(p.samples("rt/gc;gc.minor"),
              heap.stats().minorCollections.value());
    for (rt::CellRef ref : live)
        heap.release(ref);
}

TEST(CloudProfileTest, StallWatchdogFiresOnceAndStandsDown)
{
    core::Cloud cloud;
    cloud.enableStallWatchdog(Duration::millis(1));

    // Open a flow and never complete it: the watchdog must notice.
    FlowId id = cloud.flows().begin("test", cloud.engine().now());
    ASSERT_NE(id, 0u);
    cloud.runFor(Duration::millis(20));

    EXPECT_EQ(cloud.profiler().alerts(), 1u)
        << "stall alert must be one-shot until new work arrives";
    ASSERT_FALSE(cloud.profiler().alertLog().empty());
    EXPECT_NE(cloud.profiler().alertLog()[0].find("stall"),
              std::string::npos);

    // Completing the flow and starting another re-arms the watchdog.
    cloud.flows().end(id, cloud.engine().now());
    FlowId id2 = cloud.flows().begin("test", cloud.engine().now());
    ASSERT_NE(id2, 0u);
    cloud.runFor(Duration::millis(20));
    EXPECT_EQ(cloud.profiler().alerts(), 2u);
}

TEST(CloudProfileTest, QuiescentCloudSchedulesNoWatchdogWork)
{
    core::Cloud cloud;
    cloud.enableStallWatchdog(Duration::millis(1));
    TimePoint before = cloud.engine().now();
    cloud.run(); // no flows live: must return immediately
    EXPECT_EQ((cloud.engine().now() - before).ns(), 0);
    EXPECT_EQ(cloud.profiler().alerts(), 0u);
}

TEST(CloudProfileTest, DomainsAccumulateRunAndNotifyAccounting)
{
    core::Cloud cloud;
    core::Guest &server =
        cloud.startUnikernel("server", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));
    http::HttpServer web(server.stack, 80,
                         [](const http::HttpRequest &, auto respond) {
                             respond(http::HttpResponse::text(200, "ok"));
                         });
    bool got = false;
    http::httpGet(client.stack, net::Ipv4Addr(10, 0, 0, 2), 80, "/",
                  [&](Result<http::HttpResponse> r) { got = r.ok(); });
    cloud.run();
    ASSERT_TRUE(got);

    const DomainStats *s = cloud.profiler().findDomain("server");
    const DomainStats *c = cloud.profiler().findDomain("client");
    ASSERT_NE(s, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_GT(s->run_ns.value(), 0u);
    EXPECT_GT(c->run_ns.value(), 0u);
    EXPECT_GT(s->notifies_sent.value(), 0u);
    EXPECT_GT(s->notifies_received.value(), 0u);
    ASSERT_GT(s->rings.count("netback.tx"), 0u);
    EXPECT_GT(s->rings.at("netback.tx").capacity, 0u)
        << "backend drains must record ring occupancy";
    EXPECT_EQ(u64(server.dom.vcpu().busyTime().ns()), s->run_ns.value())
        << "DomainStats run time must equal the vcpu's busy time";
}

TEST(CloudProfileTest, HttpAttributionLandsInSubsystemScopes)
{
    core::Cloud cloud;
    cloud.profiler().enable();
    core::Guest &server =
        cloud.startUnikernel("server", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));
    http::HttpServer web(server.stack, 80,
                         [](const http::HttpRequest &, auto respond) {
                             respond(http::HttpResponse::text(200, "ok"));
                         });
    bool got = false;
    http::httpGet(client.stack, net::Ipv4Addr(10, 0, 0, 2), 80, "/",
                  [&](Result<http::HttpResponse> r) { got = r.ok(); });
    cloud.run();
    ASSERT_TRUE(got);

    Profiler &p = cloud.profiler();
    EXPECT_GT(p.totalNs(), 0u);
    EXPECT_GE(p.attributedFraction(), 0.95)
        << "folded:\n" << p.folded();
    std::string folded = p.folded();
    EXPECT_NE(folded.find("app/http"), std::string::npos) << folded;
    EXPECT_NE(folded.find("hyp/netback/tx"), std::string::npos)
        << folded;
}

// Regression for the polled-consumer attribution bug: when the netif
// falls back to timer-driven polling (NAPI-style), rx responses are
// drained from a poll timer that carries no ambient flow. Each drained
// slot must re-establish the flow stamped by the backend, so request
// flows keep all their stages instead of losing everything downstream
// of the poll.
TEST(CloudProfileTest, PolledHttpFlowsKeepAllStages)
{
    core::Cloud cloud;
    core::Guest &server =
        cloud.startUnikernel("server", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 3));
    http::HttpServer web(server.stack, 80,
                         [](const http::HttpRequest &, auto respond) {
                             respond(http::HttpResponse::text(
                                 200, std::string(2048, 'x')));
                         });

    // A keep-alive burst: enough sustained traffic that both netifs
    // park their rings and drain from the poll timer.
    int completed = 0;
    auto session_holder =
        std::make_shared<std::shared_ptr<http::HttpSession>>();
    *session_holder = http::HttpSession::open(
        client.stack, net::Ipv4Addr(10, 0, 0, 2), 80,
        [&, session_holder](Status st) {
            ASSERT_TRUE(st.ok());
            for (int i = 0; i < 16; i++) {
                http::HttpRequest req;
                req.method = "GET";
                req.path = "/burst";
                (*session_holder)
                    ->request(req, [&](Result<http::HttpResponse> r) {
                        if (r.ok())
                            completed++;
                    });
            }
        });
    cloud.run();
    EXPECT_EQ(completed, 16);

    std::size_t checked = 0;
    for (const FlowTracker::Flow &f : cloud.flows().recent()) {
        if (std::string(f.kind) != "http")
            continue;
        checked++;
        EXPECT_GE(f.stages.size(), 4u)
            << "flow " << f.id << " (" << f.detail << ") lost stages: "
            << cloud.flows().recentJson();
        EXPECT_TRUE(f.done) << "flow " << f.id << " never finalised";
    }
    EXPECT_EQ(checked, 16u);
}

} // namespace
} // namespace mirage::trace
