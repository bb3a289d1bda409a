/**
 * @file
 * Unit tests for the tracing + metrics layer: counters, log-linear
 * histograms, registry dump (plain and Prometheus), the Chrome
 * trace_event exporter (sync, async and flight-recorder modes), the
 * flow tracker, and the engine round-trip (mirrored counters match the
 * engine's own stats; ambient flows survive event hops).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/check.h"
#include "core/cloud.h"
#include "sim/engine.h"
#include "trace/layer.h"
#include "trace/telemetry.h"

namespace mirage::trace {
namespace {

TEST(CounterTest, IncrementsMonotonically)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, BumpIsNullSafe)
{
    bump(nullptr, 7); // must not crash
    Counter c;
    bump(&c, 7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(CounterTest, OwnerCellFeedsItsTotal)
{
    MetricsRegistry reg;
    Counter a(total(&reg, "grant.issued"));
    Counter b(total(&reg, "grant.issued"));
    a.inc(3);
    b.inc();
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 1u);
    EXPECT_EQ(reg.findCounter("grant.issued")->value(), 4u);
    EXPECT_EQ(total(nullptr, "grant.issued"), nullptr)
        << "no registry: no total";
}

TEST(HistogramTest, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(HistogramTest, TracksExactAggregates)
{
    Histogram h;
    for (u64 v : {10u, 20u, 30u, 40u})
        h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 100u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 40u);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
    observe(nullptr, 5); // null-safe
}

TEST(HistogramTest, QuantileWithinLogLinearError)
{
    Histogram h;
    for (u64 v = 1; v <= 1000; v++)
        h.record(v);
    // Log-linear buckets over-estimate by at most one sub-bucket:
    // bounded relative error of ~ 1/subBuckets.
    u64 p50 = h.quantile(0.5);
    EXPECT_GE(p50, 500u);
    EXPECT_LE(p50, 640u);
    u64 p99 = h.quantile(0.99);
    EXPECT_GE(p99, 990u);
    EXPECT_LE(p99, 1200u);
    EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
}

TEST(HistogramTest, BucketIndexIsMonotonicAndConsistent)
{
    std::size_t prev = 0;
    for (u64 v : {0ull, 1ull, 2ull, 3ull, 5ull, 17ull, 100ull, 4096ull,
                  1ull << 20, 1ull << 40, ~0ull >> 1}) {
        std::size_t idx = Histogram::bucketIndex(v);
        EXPECT_GE(idx, prev) << "index must not decrease at v=" << v;
        EXPECT_LE(v, Histogram::bucketUpperBound(idx))
            << "value must fall at or below its bucket's upper bound";
        EXPECT_LT(idx, Histogram::bucketCount);
        prev = idx;
    }
}

TEST(HistogramTest, SummaryMentionsCountAndMax)
{
    Histogram h;
    h.record(100);
    h.record(300);
    std::string s = h.summary();
    EXPECT_NE(s.find("count=2"), std::string::npos) << s;
    EXPECT_NE(s.find("max=300"), std::string::npos) << s;
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStableRefs)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("tcp.segments_sent");
    Counter &b = reg.counter("tcp.segments_sent");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.counterCount(), 1u);
    a.inc(3);
    ASSERT_NE(reg.findCounter("tcp.segments_sent"), nullptr);
    EXPECT_EQ(reg.findCounter("tcp.segments_sent")->value(), 3u);
    EXPECT_EQ(reg.findCounter("no.such.metric"), nullptr);
    EXPECT_EQ(reg.findHistogram("no.such.metric"), nullptr);
    Histogram &h = reg.histogram("gc.pause_ns");
    h.record(5);
    EXPECT_EQ(reg.findHistogram("gc.pause_ns")->count(), 1u);
}

TEST(MetricsRegistryTest, OnceCountedSeriesIsListedFromItsFirstCount)
{
    MetricsRegistry reg;
    Counter *stalls = total(&reg, "netif.rx.stalls", Listed::OnceCounted);
    ASSERT_NE(stalls, nullptr);
    EXPECT_EQ(reg.findCounter("netif.rx.stalls"), nullptr);
    EXPECT_EQ(reg.counterCount(), 0u);
    EXPECT_EQ(reg.dump().find("netif.rx.stalls"), std::string::npos);
    EXPECT_EQ(reg.toPrometheus().find("netif_rx_stalls"),
              std::string::npos);
    stalls->inc();
    ASSERT_NE(reg.findCounter("netif.rx.stalls"), nullptr);
    EXPECT_EQ(reg.counterCount(), 1u);
    EXPECT_NE(reg.dump().find("netif.rx.stalls"), std::string::npos);
    EXPECT_NE(reg.toPrometheus().find("netif_rx_stalls 1"),
              std::string::npos);
    // Anyone asking for the name as Listed::Always lists it at zero.
    total(&reg, "notify.suppressed", Listed::OnceCounted);
    reg.counter("notify.suppressed");
    EXPECT_NE(reg.findCounter("notify.suppressed"), nullptr);
}

TEST(MetricsRegistryTest, DumpListsMetricsSortedByName)
{
    MetricsRegistry reg;
    reg.counter("z.last").inc(9);
    reg.counter("a.first").inc(1);
    reg.histogram("m.middle_ns").record(250);
    std::string d = reg.dump();
    std::size_t a = d.find("a.first");
    std::size_t m = d.find("m.middle_ns");
    std::size_t z = d.find("z.last");
    ASSERT_NE(a, std::string::npos) << d;
    ASSERT_NE(m, std::string::npos) << d;
    ASSERT_NE(z, std::string::npos) << d;
    EXPECT_LT(a, z) << "dump must be sorted by name:\n" << d;
}

TEST(TraceRecorderTest, DisabledRecorderIsANoOp)
{
    TraceRecorder tr;
    EXPECT_FALSE(tr.enabled());
    tr.span(Cat::Net, "tcp.tx", TimePoint(0), Duration::micros(5));
    tr.instant(Cat::App, "mark", TimePoint(0));
    EXPECT_EQ(tr.eventCount(), 0u);
}

TEST(TraceRecorderTest, TrackInterningIsStable)
{
    TraceRecorder tr;
    u32 a = tr.track("twitter/vcpu");
    u32 b = tr.track("browser/vcpu");
    EXPECT_NE(a, 0u) << "track 0 is reserved for the event loop";
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(tr.track("twitter/vcpu"), a);
}

TEST(TraceRecorderTest, ChromeJsonIsSortedByTimestamp)
{
    TraceRecorder tr;
    tr.enable();
    u32 tid = tr.track("cpu0");
    // Recorded out of order on purpose: a Cpu may book a span whose
    // start lies in the future of the event that scheduled it.
    tr.span(Cat::Cpu, "late", TimePoint(Duration::micros(30).ns()),
            Duration::micros(10), tid);
    tr.span(Cat::Cpu, "early", TimePoint(Duration::micros(1).ns()),
            Duration::micros(2), tid, jsonObject("seq", 7));
    tr.instant(Cat::Engine, "dispatch", TimePoint(0));
    EXPECT_EQ(tr.eventCount(), 3u);

    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu0\""), std::string::npos)
        << "track names must be emitted as thread metadata";
    EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
    std::size_t d = json.find("\"dispatch\"");
    std::size_t e = json.find("\"early\"");
    std::size_t l = json.find("\"late\"");
    ASSERT_NE(d, std::string::npos);
    ASSERT_NE(e, std::string::npos);
    ASSERT_NE(l, std::string::npos);
    EXPECT_LT(d, e);
    EXPECT_LT(e, l);
}

TEST(TraceRecorderTest, WriteChromeJsonRoundTrips)
{
    TraceRecorder tr;
    tr.enable();
    tr.instant(Cat::App, "mark", TimePoint(Duration::micros(3).ns()));
    std::string path = testing::TempDir() + "trace_test_out.json";
    ASSERT_TRUE(tr.writeChromeJson(path).ok());
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096] = {};
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    std::string content(buf, n);
    EXPECT_NE(content.find("\"mark\""), std::string::npos);
    EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceRecorderTest, EngineMirrorsCountersAndRecordsDispatch)
{
    Telemetry t;
    MetricsRegistry &reg = t.metrics;
    TraceRecorder &tr = t.tracer;
    tr.enable();
    sim::Engine e(&t);

    int fired = 0;
    for (int i = 0; i < 5; i++)
        e.after(Duration::millis(i + 1), [&] { fired++; });
    sim::EventId doomed = e.after(Duration::millis(50), [&] { fired++; });
    e.cancel(doomed);
    e.run();

    EXPECT_EQ(fired, 5);
    ASSERT_NE(reg.findCounter("sim.events_run"), nullptr);
    EXPECT_EQ(reg.findCounter("sim.events_run")->value(), e.eventsRun());
    EXPECT_EQ(reg.findCounter("sim.events_cancelled")->value(), 1u);
    // One "dispatch" instant per executed event, on the engine track.
    std::size_t dispatches = 0;
    for (const TraceRecorder::Event &ev : tr.events())
        if (ev.ph == 'i' && std::string(ev.name) == "dispatch")
            dispatches++;
    EXPECT_EQ(dispatches, e.eventsRun());
}

/** @p s as the writer renders a string value. */
std::string
quoted(const std::string &s)
{
    JsonWriter w;
    w.str(s);
    return w.take();
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(quoted("plain"), "\"plain\"");
    EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(quoted("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(quoted("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(quoted(std::string("nul\x01mid")), "\"nul\\u0001mid\"");
    EXPECT_EQ(quoted("\r"), "\"\\u000d\"");
    // Keys are escaped the same way.
    EXPECT_EQ(jsonObject("k\"", 1), "{\"k\\\"\":1}");
}

TEST(JsonWriterTest, PlacesCommasAndLineBreaks)
{
    JsonWriter w;
    w.beginObject().newline().key("list").beginArray();
    for (int i = 0; i < 3; i++)
        w.newline().beginObject().field("i", i).endObject();
    w.endArray().newline().key("empty").beginArray().endArray();
    w.key("nested").beginObject().fields("s", "x", "neg", i64(-2), "on",
                                         true);
    w.key("ratio").fixed(0.12345, 4).key("pre").raw("[1,2]");
    w.endObject().newline().endObject().newline();
    EXPECT_EQ(w.take(), "{\n\"list\":[\n{\"i\":0},\n{\"i\":1},\n{\"i\":2}],\n"
                        "\"empty\":[],\"nested\":{\"s\":\"x\",\"neg\":-2,"
                        "\"on\":true,\"ratio\":0.1235,\"pre\":[1,2]}\n}\n");
    EXPECT_EQ(jsonObject(), "{}");
    EXPECT_EQ(jsonObject("op", "read", "sectors", 8u),
              "{\"op\":\"read\",\"sectors\":8}");
}

TEST(TraceRecorderTest, FlightRingKeepsLastNAndCountsDropped)
{
    TraceRecorder tr;
    tr.enable();
    tr.setFlightCapacity(4);
    EXPECT_EQ(tr.flightCapacity(), 4u);
    for (int i = 0; i < 10; i++)
        tr.instant(Cat::App, "tick", TimePoint(i));
    EXPECT_EQ(tr.eventCount(), 4u);
    EXPECT_EQ(tr.droppedEvents(), 6u);
    std::vector<TraceRecorder::Event> evs = tr.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first: the surviving tail is ts 6..9.
    EXPECT_EQ(evs.front().ts_ns, 6);
    EXPECT_EQ(evs.back().ts_ns, 9);
    std::string json = tr.toChromeJson();
    EXPECT_NE(json.find("\"droppedEvents\":6"), std::string::npos)
        << json;
}

TEST(TraceRecorderTest, SettingFlightCapacityTrimsExistingEvents)
{
    TraceRecorder tr;
    tr.enable();
    for (int i = 0; i < 6; i++)
        tr.instant(Cat::App, "tick", TimePoint(i));
    tr.setFlightCapacity(2);
    EXPECT_EQ(tr.eventCount(), 2u);
    EXPECT_EQ(tr.droppedEvents(), 4u);
    std::vector<TraceRecorder::Event> evs = tr.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs.front().ts_ns, 4);
    EXPECT_EQ(evs.back().ts_ns, 5);
}

TEST(TraceRecorderTest, AsyncEventsCarryMatchingIds)
{
    TraceRecorder tr;
    tr.enable();
    u32 guest = tr.track("guest/tcp");
    u32 dom0 = tr.track("dom0/netback");
    tr.asyncBegin(Cat::Flow, "http", 0xabc, TimePoint(10), guest);
    tr.asyncInstant(Cat::Flow, "hop", 0xabc, TimePoint(15), dom0);
    tr.asyncEnd(Cat::Flow, "http", 0xabc, TimePoint(20), dom0);
    std::string json = tr.toChromeJson();
    // All three phases reference the same async id, so viewers can
    // stitch one flow across the two tracks.
    std::size_t at = 0, ids = 0;
    while ((at = json.find("\"id\":\"0xabc\"", at)) !=
           std::string::npos) {
        ids++;
        at++;
    }
    EXPECT_EQ(ids, 3u) << json;
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, PrometheusExpositionFormat)
{
    MetricsRegistry reg;
    reg.counter("http.requests").inc(5);
    Histogram &h = reg.histogram("req.latency_ns");
    h.record(3);
    h.record(100);
    std::string prom = reg.toPrometheus();

    EXPECT_NE(prom.find("# TYPE http_requests counter\n"
                        "http_requests 5\n"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE req_latency_ns histogram"),
              std::string::npos)
        << prom;
    // Buckets are cumulative and end at +Inf; sum/count close out.
    u64 ub3 = Histogram::bucketUpperBound(Histogram::bucketIndex(3));
    u64 ub100 =
        Histogram::bucketUpperBound(Histogram::bucketIndex(100));
    std::string b3 = strprintf("req_latency_ns_bucket{le=\"%llu\"} 1",
                               (unsigned long long)ub3);
    std::string b100 = strprintf(
        "req_latency_ns_bucket{le=\"%llu\"} 2",
        (unsigned long long)ub100);
    EXPECT_NE(prom.find(b3), std::string::npos) << prom;
    EXPECT_NE(prom.find(b100), std::string::npos) << prom;
    EXPECT_NE(prom.find("req_latency_ns_bucket{le=\"+Inf\"} 2"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("req_latency_ns_sum 103"), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("req_latency_ns_count 2"), std::string::npos)
        << prom;
}

TEST(FlowTrackerTest, StagesMergeAndFinalizeIsDeferred)
{
    Telemetry t;
    t.tracer.enable();
    MetricsRegistry &reg = t.metrics;
    FlowTracker &fl = t.flows;

    FlowId id = fl.begin("http", TimePoint(100), 0, "GET /x");
    ASSERT_NE(id, 0u);
    fl.stageBegin(id, "handler", TimePoint(100));
    fl.stageEnd(id, "handler", TimePoint(150));
    fl.stageBegin(id, "tcp_tx", TimePoint(150));
    // end() arrives while tcp_tx is still open: the flow must not
    // finalize until the last stage closes (the final ACK).
    fl.end(id, TimePoint(160));
    EXPECT_EQ(fl.completed(), 0u);
    EXPECT_EQ(fl.liveCount(), 1u);
    fl.stageEnd(id, "tcp_tx", TimePoint(400));
    EXPECT_EQ(fl.completed(), 1u);
    EXPECT_EQ(fl.liveCount(), 0u);

    ASSERT_NE(reg.findCounter("flow.http.completed"), nullptr);
    EXPECT_EQ(reg.findCounter("flow.http.completed")->value(), 1u);
    ASSERT_NE(reg.findHistogram("flow.http.stage.handler_ns"),
              nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.stage.handler_ns")->sum(),
              50u);
    ASSERT_NE(reg.findHistogram("flow.http.total_ns"), nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.total_ns")->sum(), 300u);

    std::string j = fl.recentJson();
    EXPECT_NE(j.find("\"kind\":\"http\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"detail\":\"GET /x\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"handler\":50"), std::string::npos) << j;

    // Stage calls for a finalized (or unknown) flow are no-ops.
    fl.stageBegin(id, "late", TimePoint(500));
    fl.stageEnd(9999, "late", TimePoint(500));
    EXPECT_EQ(fl.completed(), 1u);
}

TEST(FlowTrackerTest, NestedStageOpensAreUnionMerged)
{
    Telemetry t;
    FlowTracker &fl = t.flows;
    FlowId id = fl.begin("http", TimePoint(0));
    fl.stageBegin(id, "netif_tx", TimePoint(0));
    fl.stageBegin(id, "netif_tx", TimePoint(10)); // overlapping open
    fl.stageEnd(id, "netif_tx", TimePoint(20));
    fl.stageEnd(id, "netif_tx", TimePoint(50));
    fl.end(id, TimePoint(50));
    ASSERT_EQ(fl.recent().size(), 1u);
    const FlowTracker::Flow &f = fl.recent().front();
    ASSERT_EQ(f.stages.size(), 1u);
    // One merged interval [0, 50), not 50 + 10 double-counted.
    EXPECT_EQ(f.stages.front().total_ns, 50u);
    EXPECT_EQ(f.stages.front().count, 2u);
}

TEST(FlowTrackerTest, EachSeriesAppearsOnItsFirstCompletion)
{
    Telemetry t;
    MetricsRegistry &reg = t.metrics;
    FlowTracker &fl = t.flows;
    FlowId a = fl.begin("http", TimePoint(0));
    EXPECT_EQ(reg.findCounter("flow.http.completed"), nullptr);
    fl.end(a, TimePoint(10));
    ASSERT_NE(reg.findCounter("flow.http.completed"), nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.stage.blkif_ns"), nullptr);

    // A later flow of the same kind brings a new stage series; another
    // kind brings its own, and completed() sums every kind.
    FlowId b = fl.begin("http", TimePoint(20));
    fl.stageBegin(b, "blkif", TimePoint(20));
    fl.stageEnd(b, "blkif", TimePoint(25));
    fl.end(b, TimePoint(30));
    fl.end(fl.begin("dns", TimePoint(40)), TimePoint(41));
    ASSERT_NE(reg.findHistogram("flow.http.stage.blkif_ns"), nullptr);
    EXPECT_EQ(reg.findHistogram("flow.http.stage.blkif_ns")->sum(), 5u);
    EXPECT_EQ(reg.findCounter("flow.http.completed")->value(), 2u);
    EXPECT_EQ(reg.findCounter("flow.dns.completed")->value(), 1u);
    EXPECT_EQ(fl.completed(), 3u);
}

TEST(LayerTraceTest, InternsOnFirstTracedUseAndNoOpsWithoutAFlow)
{
    const std::string owner = "web0";
    LayerTrace bare(nullptr, owner, "/tcp");
    EXPECT_EQ(bare.recorder(), nullptr);
    EXPECT_EQ(bare.track(), 0u);
    EXPECT_EQ(bare.begin("http", TimePoint(0), "", ""), 0u);
    EXPECT_EQ(bare.stageBegin("tcp_tx", TimePoint(0)), 0u);

    Telemetry t;
    LayerTrace lt(&t, owner, "/tcp");
    EXPECT_EQ(lt.track(), 0u) << "nothing is interned while off";
    t.tracer.enable();
    u32 tid = lt.track();
    EXPECT_NE(tid, 0u);
    EXPECT_EQ(t.tracer.track("web0/tcp"), tid);

    // No ambient flow: no stage opens.
    EXPECT_EQ(lt.stageBegin("tcp_tx", TimePoint(0)), 0u);
    FlowId id = lt.begin("http", TimePoint(0), "GET /", owner);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(lt.stageBegin("tcp_tx", TimePoint(5)), id);
    lt.end(id, TimePoint(6));
    EXPECT_EQ(t.flows.completed(), 0u) << "tcp_tx is still open";
    lt.stageEnd(id, "tcp_tx", TimePoint(9));
    EXPECT_EQ(t.flows.completed(), 1u);

    // enter(0) leaves the ambient flow as it is.
    t.flows.setCurrent(7);
    {
        FlowScope none = lt.enter(0);
        EXPECT_EQ(t.flows.current(), 7u);
        FlowScope other = lt.enter(3);
        EXPECT_EQ(t.flows.current(), 3u);
    }
    EXPECT_EQ(t.flows.current(), 7u);
    t.flows.setCurrent(0);
}

TEST(FlowTrackerTest, EngineCarriesAmbientFlowAcrossEvents)
{
    Telemetry t;
    FlowTracker &fl = t.flows;
    sim::Engine e(&t);

    FlowId id = fl.begin("http", TimePoint(0));
    FlowId seen_outer = 0, seen_inner = 0;
    {
        FlowScope scope(&fl, id);
        e.after(Duration::millis(1), [&] {
            seen_outer = fl.current();
            // Chained work inherits the flow too.
            e.after(Duration::millis(1),
                    [&] { seen_inner = fl.current(); });
        });
    }
    fl.setCurrent(0);
    e.after(Duration::millis(3), [&] { EXPECT_EQ(fl.current(), 0u); });
    e.run();
    EXPECT_EQ(seen_outer, id);
    EXPECT_EQ(seen_inner, id);
    fl.end(id, TimePoint(0));
}

TEST(TelemetryTest, CompletedFlowReachesEverySiblingWithoutWiring)
{
    // The bundle is the wiring: nothing here connects the flow tracker
    // to the registry, the SLO tracker, the hub or the alert path.
    Telemetry t;
    SloTarget target;
    target.latencyTargetNs = 1000; // 1 us
    t.slo.setTarget("http", target);

    FlowId id = t.flows.begin("http", TimePoint(0), 0, "GET /slow", "web0");
    t.flows.end(id, TimePoint(5000)); // 5 us: breaches the target

    ASSERT_EQ(t.hub.domains().count("web0"), 1u);
    EXPECT_EQ(t.hub.domains().at("web0").requests, 1u);
    const Histogram *total = t.metrics.findHistogram("flow.http.total_ns");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->count(), 1u);
    EXPECT_EQ(total->sum(), 5000u);
    EXPECT_EQ(t.slo.alerts(), 1u);
    ASSERT_EQ(t.profiler.alertLog().size(), 1u);
    EXPECT_EQ(t.profiler.alertLog()[0].rfind("slo_burn: http: ", 0), 0u)
        << t.profiler.alertLog()[0];
}

TEST(FlightRecorderTest, CheckerViolationDumpsBoundedTrace)
{
    std::string path = testing::TempDir() + "flight_dump.json";
    std::remove(path.c_str());
    ::setenv("MIRAGE_FLIGHT", "8", 1);
    ::setenv("MIRAGE_FLIGHT_PATH", path.c_str(), 1);
    {
        core::Cloud cloud;
        EXPECT_EQ(cloud.tracer().flightCapacity(), 8u);
        cloud.checker().setMode(check::Checker::Mode::Count);
        cloud.checker().enable();
        for (int i = 0; i < 32; i++)
            cloud.tracer().instant(Cat::App, "tick", TimePoint(i));
        EXPECT_EQ(cloud.tracer().eventCount(), 8u);
        cloud.checker().violation(check::Subsystem::Ring,
                                  "test.injected", "synthetic");
    }
    ::unsetenv("MIRAGE_FLIGHT");
    ::unsetenv("MIRAGE_FLIGHT_PATH");

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "violation hook must write " << path;
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(content.find("\"droppedEvents\":"), std::string::npos);
    EXPECT_NE(content.find("\"tick\""), std::string::npos);
}

} // namespace
} // namespace mirage::trace
