/**
 * @file
 * Real-time microbenchmarks (google-benchmark) of the library's hot
 * paths: Cstruct accessors and slicing, the Internet checksum, the
 * shared-ring protocol, TCP header build/parse, DNS query handling
 * (memo hit vs full path), and B-tree operations. These measure this
 * implementation's own code, complementing the virtual-time
 * reproductions.
 */

#include <benchmark/benchmark.h>

#include "base/checksum.h"
#include "base/logging.h"
#include "hypervisor/ring.h"
#include "sim/engine.h"
#include "net/tcp_wire.h"
#include "protocols/dns/server.h"
#include "storage/btree.h"

using namespace mirage;

namespace {

void
BM_CstructBe32RoundTrip(benchmark::State &state)
{
    Cstruct c = Cstruct::create(4096);
    u32 v = 0;
    for (auto _ : state) {
        c.setBe32((v % 1000) * 4, v);
        v += c.getBe32((v % 1000) * 4);
        benchmark::DoNotOptimize(v);
    }
}

void
BM_CstructSubSlice(benchmark::State &state)
{
    Cstruct c = Cstruct::create(4096);
    std::size_t off = 0;
    for (auto _ : state) {
        Cstruct view = c.sub(off % 2048, 1024).shift(64);
        benchmark::DoNotOptimize(view.length());
        off += 13;
    }
}

void
BM_InternetChecksum(benchmark::State &state)
{
    Cstruct c = Cstruct::create(std::size_t(state.range(0)));
    for (std::size_t i = 0; i < c.length(); i++)
        c.setU8(i, u8(i * 31));
    for (auto _ : state)
        benchmark::DoNotOptimize(internetChecksum(c));
    state.SetBytesProcessed(i64(state.iterations()) * state.range(0));
}

void
BM_SharedRingRoundTrip(benchmark::State &state)
{
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(page).init();
    xen::FrontRing front(page);
    xen::BackRing back(page);
    for (auto _ : state) {
        CstructView req = front.startRequest().value();
        req.setLe64(0, 42);
        front.pushRequests();
        CstructView got = back.takeRequest().value();
        CstructView rsp = back.startResponse().value();
        rsp.setLe64(0, got.getLe64(0));
        back.pushResponses();
        benchmark::DoNotOptimize(
            front.takeResponse().value().getLe64(0));
    }
}

void
BM_EngineScheduleDispatch(benchmark::State &state)
{
    // The event-engine hot loop: schedule + dispatch, no cancellation.
    // Exercises the slot allocator that replaced the per-event hash
    // sets.
    sim::Engine engine;
    u64 sink = 0;
    for (auto _ : state) {
        engine.after(Duration::nanos(1), [&sink] { sink++; });
        engine.step();
    }
    benchmark::DoNotOptimize(sink);
}

void
BM_EngineScheduleCancel(benchmark::State &state)
{
    // Timer-heavy workloads (TCP RTO, poll timeouts) schedule and
    // cancel far more events than they dispatch.
    sim::Engine engine;
    for (auto _ : state) {
        sim::EventId id = engine.after(Duration::millis(100), [] {});
        engine.cancel(id);
        engine.step(); // pops the cancelled slot
    }
}

void
BM_TcpHeaderBuildParse(benchmark::State &state)
{
    Cstruct buf = Cstruct::create(64);
    for (auto _ : state) {
        std::size_t len = net::writeTcpHeader(
            buf, 80, 45678, 0x12345678, 0x9abcdef0,
            net::TcpFlags::ack | net::TcpFlags::psh, 2048, false, 0,
            -1);
        auto seg = net::TcpSegment::parse(buf.sub(0, len));
        benchmark::DoNotOptimize(seg.value().seq);
    }
}

void
BM_DnsQueryFullPath(benchmark::State &state)
{
    dns::DnsServer::Config cfg;
    cfg.memoize = false;
    dns::DnsServer server(dns::syntheticZone("bench.example.", 10000),
                          cfg);
    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{
        dns::nameFromString("host004242.bench.example").value(), 1, 1});
    dns::MessageWriter w(dns::CompressionImpl::None);
    Cstruct query = w.write(q);
    for (auto _ : state) {
        auto rsp = server.answer(query);
        benchmark::DoNotOptimize(rsp.value().length());
    }
}

void
BM_DnsQueryMemoHit(benchmark::State &state)
{
    dns::DnsServer server(dns::syntheticZone("bench.example.", 10000),
                          dns::DnsServer::Config{});
    dns::DnsMessage q;
    q.header = dns::DnsHeader{};
    q.header.qdcount = 1;
    q.questions.push_back(dns::Question{
        dns::nameFromString("host004242.bench.example").value(), 1, 1});
    dns::MessageWriter w(dns::CompressionImpl::None);
    Cstruct query = w.write(q);
    (void)server.answer(query); // warm the memo
    for (auto _ : state) {
        auto rsp = server.answer(query);
        benchmark::DoNotOptimize(rsp.value().length());
    }
}

void
BM_BTreeInsert(benchmark::State &state)
{
    storage::MemDevice dev(1u << 18);
    storage::BTree tree(dev);
    tree.format([](Status) {});
    u64 i = 0;
    for (auto _ : state) {
        tree.set(strprintf("key%08llu", (unsigned long long)i++), "v",
                 [](Status) {});
    }
}

void
BM_BTreeLookup(benchmark::State &state)
{
    storage::MemDevice dev(1u << 18);
    storage::BTree tree(dev);
    tree.format([](Status) {});
    for (u64 i = 0; i < 1000; i++)
        tree.set(strprintf("key%08llu", (unsigned long long)i), "v",
                 [](Status) {});
    u64 i = 0;
    for (auto _ : state) {
        tree.get(strprintf("key%08llu",
                           (unsigned long long)(i++ % 1000)),
                 [](Result<std::string> r) {
                     benchmark::DoNotOptimize(r.ok());
                 });
    }
}

} // namespace

BENCHMARK(BM_CstructBe32RoundTrip);
BENCHMARK(BM_CstructSubSlice);
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1460);
BENCHMARK(BM_SharedRingRoundTrip);
BENCHMARK(BM_EngineScheduleDispatch);
BENCHMARK(BM_EngineScheduleCancel);
BENCHMARK(BM_TcpHeaderBuildParse);
BENCHMARK(BM_DnsQueryFullPath);
BENCHMARK(BM_DnsQueryMemoHit);
BENCHMARK(BM_BTreeInsert);
BENCHMARK(BM_BTreeLookup);

BENCHMARK_MAIN();
