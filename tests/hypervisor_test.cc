/**
 * @file
 * Tests for the hypervisor substrate: W^X sealing (§2.3.3), grant
 * tables, event channels, the shared ring protocol, vchan, the boot
 * cost model (Figs 5-6) and the net/blk backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hypervisor/blkback.h"
#include "hypervisor/builder.h"
#include "hypervisor/netback.h"
#include "hypervisor/ring.h"
#include "hypervisor/vchan.h"
#include "hypervisor/xen.h"

namespace mirage::xen {
namespace {

class HvTest : public ::testing::Test
{
  protected:
    sim::Engine engine;
    Hypervisor hv{engine};
};

// ---- Sealing / W^X ---------------------------------------------------------

TEST_F(HvTest, SealEnforcesWxExclusion)
{
    Domain &d = hv.createDomain("uk", GuestKind::Unikernel, 64);
    auto &pt = d.pageTables();
    ASSERT_TRUE(pt.map(1, PagePerms::rx(), PageRole::Text).ok());
    ASSERT_TRUE(pt.map(2, PagePerms::rwx(), PageRole::Data).ok());
    // A W+X page must abort the seal.
    EXPECT_FALSE(hv.seal(d).ok());
    ASSERT_TRUE(pt.protect(2, PagePerms::rw()).ok());
    EXPECT_TRUE(hv.seal(d).ok());
    EXPECT_TRUE(pt.sealed());
}

TEST_F(HvTest, SealedTablesRefuseModification)
{
    Domain &d = hv.createDomain("uk", GuestKind::Unikernel, 64);
    auto &pt = d.pageTables();
    ASSERT_TRUE(pt.map(1, PagePerms::rx(), PageRole::Text).ok());
    ASSERT_TRUE(pt.map(2, PagePerms::rw(), PageRole::Heap).ok());
    ASSERT_TRUE(hv.seal(d).ok());

    // Code injection: write new "code" then try to make it executable.
    EXPECT_FALSE(pt.protect(2, PagePerms::rx()).ok());
    EXPECT_FALSE(pt.map(3, PagePerms::rx(), PageRole::Text).ok());
    EXPECT_FALSE(pt.unmap(1).ok());
    EXPECT_FALSE(pt.canExecute(2));
    EXPECT_GE(pt.updatesRefused(), 3u);
}

TEST_F(HvTest, SealedTablesAllowFreshIoMappings)
{
    Domain &d = hv.createDomain("uk", GuestKind::Unikernel, 64);
    auto &pt = d.pageTables();
    ASSERT_TRUE(pt.map(1, PagePerms::rx(), PageRole::Text).ok());
    ASSERT_TRUE(hv.seal(d).ok());

    // I/O is unaffected by sealing (§2.3.3): fresh, non-executable.
    EXPECT_TRUE(pt.map(100, PagePerms::rw(), PageRole::IoPage).ok());
    // ... but an I/O mapping must not replace an existing page,
    EXPECT_FALSE(pt.map(1, PagePerms::rw(), PageRole::IoPage).ok());
    // ... and must not be executable.
    EXPECT_FALSE(pt.map(101, PagePerms::rx(), PageRole::IoPage).ok());
}

TEST_F(HvTest, SealIsOneShot)
{
    Domain &d = hv.createDomain("uk", GuestKind::Unikernel, 64);
    ASSERT_TRUE(hv.seal(d).ok());
    EXPECT_FALSE(hv.seal(d).ok());
}

// ---- Grant tables ------------------------------------------------------------

TEST_F(HvTest, GrantMapRespectsPeerAndMode)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    Domain &c = hv.createDomain("c", GuestKind::Unikernel, 32);

    Cstruct page = Cstruct::create(pageSize);
    page.setU8(0, 0x42);
    GrantRef ref = a.grantTable().grantAccess(b.id(), page, true);

    // Wrong domain cannot map.
    EXPECT_FALSE(hv.grantMap(c, a, ref, false).ok());
    // Peer cannot map read-only grant for writing.
    EXPECT_FALSE(hv.grantMap(b, a, ref, true).ok());
    // Correct mapping sees the same bytes (zero-copy).
    auto mapped = hv.grantMap(b, a, ref, false);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(mapped.value().getU8(0), 0x42);
    page.setU8(0, 0x43);
    EXPECT_EQ(mapped.value().getU8(0), 0x43) << "mapping must alias";
}

TEST_F(HvTest, EndAccessFailsWhileMapped)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(pageSize);
    GrantRef ref = a.grantTable().grantAccess(b.id(), page, false);
    ASSERT_TRUE(hv.grantMap(b, a, ref, true).ok());
    EXPECT_FALSE(a.grantTable().endAccess(ref).ok())
        << "revoking a mapped grant must fail";
    ASSERT_TRUE(hv.grantUnmap(b, a, ref).ok());
    EXPECT_TRUE(a.grantTable().endAccess(ref).ok());
}

TEST_F(HvTest, GrantMapChargesHypercall)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(pageSize);
    GrantRef ref = a.grantTable().grantAccess(b.id(), page, false);
    u64 before = hv.hypercallCount(Hypercall::GrantMap);
    ASSERT_TRUE(hv.grantMap(b, a, ref, true).ok());
    EXPECT_EQ(hv.hypercallCount(Hypercall::GrantMap), before + 1);
    EXPECT_GT(b.vcpu().busyTime().ns(), 0);
}

// ---- Event channels -----------------------------------------------------------

TEST_F(HvTest, NotifyDeliversAfterLatency)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);

    int delivered = 0;
    b.setPortHandler(pb, [&] { delivered++; });
    ASSERT_TRUE(hv.events().notify(a, pa).ok());
    EXPECT_EQ(delivered, 0) << "delivery is asynchronous";
    engine.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_TRUE(b.portPending(pb));
    b.clearPending(pb);
    EXPECT_FALSE(b.portPending(pb));
    (void)pa;
}

TEST_F(HvTest, NotifyBothDirections)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);
    int at_a = 0, at_b = 0;
    a.setPortHandler(pa, [&] { at_a++; });
    b.setPortHandler(pb, [&] { at_b++; });
    hv.events().notify(a, pa);
    hv.events().notify(b, pb);
    engine.run();
    EXPECT_EQ(at_a, 1);
    EXPECT_EQ(at_b, 1);
}

TEST_F(HvTest, DomainPollWakesOnEvent)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);
    (void)pa;

    Domain::WakeReason reason = Domain::WakeReason::Timeout;
    b.poll({pb}, Duration::seconds(10),
           [&](Domain::WakeReason r) { reason = r; });
    EXPECT_TRUE(b.blocked());
    engine.after(Duration::millis(1),
                 [&] { hv.events().notify(a, pa); });
    engine.run();
    EXPECT_EQ(reason, Domain::WakeReason::Event);
    EXPECT_FALSE(b.blocked());
    EXPECT_LT(engine.now().ns(), Duration::seconds(1).ns())
        << "wake must come from the event, not the timeout";
}

TEST_F(HvTest, DomainPollTimesOut)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);
    (void)pa;
    (void)pb;

    Domain::WakeReason reason = Domain::WakeReason::Event;
    b.poll({pb}, Duration::millis(5),
           [&](Domain::WakeReason r) { reason = r; });
    engine.run();
    EXPECT_EQ(reason, Domain::WakeReason::Timeout);
    EXPECT_EQ(engine.now().ns(), Duration::millis(5).ns());
}

TEST_F(HvTest, DomainPollImmediateWhenPending)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);
    hv.events().notify(a, pa);
    engine.run();
    ASSERT_TRUE(b.portPending(pb));

    bool woke = false;
    b.poll({pb}, Duration::seconds(100),
           [&](Domain::WakeReason) { woke = true; });
    engine.run();
    EXPECT_TRUE(woke);
    EXPECT_LT(engine.now().ns(), Duration::seconds(1).ns());
}

// ---- Shared ring protocol -------------------------------------------------

TEST(RingTest, RequestResponseRoundTrip)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(page).init();
    FrontRing front(page);
    BackRing back(page);

    auto req = front.startRequest();
    ASSERT_TRUE(req.ok());
    req.value().setLe16(0, 0x77);
    EXPECT_TRUE(front.pushRequests()) << "first push must notify";

    ASSERT_EQ(back.unconsumedRequests(), 1u);
    CstructView got = back.takeRequest().value();
    EXPECT_EQ(got.getLe16(0), 0x77);

    CstructView rsp = back.startResponse().value();
    rsp.setLe16(0, 0x88);
    EXPECT_TRUE(back.pushResponses());

    ASSERT_EQ(front.unconsumedResponses(), 1u);
    EXPECT_EQ(front.takeResponse().value().getLe16(0), 0x88);
}

TEST(RingTest, SlotViewsAliasTheirPageSlotAcrossIndexWrap)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing shared(page);
    auto expected = [&](u32 idx) {
        return page.data() + RingLayout::headerBytes +
               std::size_t(idx & (RingLayout::slotCount - 1)) *
                   RingLayout::slotBytes;
    };
    for (u32 idx : {0u, 1u, 31u, 32u, 33u, 0x7fffffffu, 0xffffffe1u,
                    0xffffffffu}) {
        CstructView v = shared.slot(idx);
        EXPECT_EQ(v.data(), expected(idx)) << idx;
        EXPECT_EQ(v.length(), RingLayout::slotBytes);
    }
    EXPECT_EQ(page.buffer().use_count(), 2) << "only the ring owns the page";

    // Both ends hand out the same slots as their counters wrap.
    shared.init();
    const u32 base = 0xfffffff0u;
    shared.setReqProd(base);
    shared.setRspProd(base);
    FrontRing front(page);
    BackRing back(page);
    front.resume();
    back.resume();
    for (u32 i = 0; i < RingLayout::slotCount; i++) {
        u32 idx = base + i;
        EXPECT_EQ(front.startRequest().value().data(), expected(idx));
        front.pushRequests();
        EXPECT_EQ(back.takeRequest().value().data(), expected(idx));
        EXPECT_EQ(back.startResponse().value().data(), expected(idx));
        back.pushResponses();
        EXPECT_EQ(front.takeResponse().value().data(), expected(idx));
    }
}

TEST(RingTest, FlowControlRefusesOverfill)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(page).init();
    FrontRing front(page);

    for (u32 i = 0; i < RingLayout::slotCount; i++)
        ASSERT_TRUE(front.startRequest().ok());
    auto overflow = front.startRequest();
    ASSERT_FALSE(overflow.ok());
    EXPECT_EQ(overflow.error().kind, Error::Kind::Exhausted);
}

TEST(RingTest, SlotsRecycleAfterResponses)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(page).init();
    FrontRing front(page);
    BackRing back(page);

    // Cycle the ring several times over to exercise wraparound.
    for (int round = 0; round < 10; round++) {
        for (u32 i = 0; i < RingLayout::slotCount; i++) {
            auto r = front.startRequest();
            ASSERT_TRUE(r.ok());
            r.value().setLe32(0, u32(round * 100 + int(i)));
        }
        front.pushRequests();
        while (back.unconsumedRequests() > 0) {
            CstructView q = back.takeRequest().value();
            CstructView s = back.startResponse().value();
            s.setLe32(0, q.getLe32(0) + 1);
        }
        back.pushResponses();
        u32 expect = u32(round * 100) + 1;
        while (front.unconsumedResponses() > 0) {
            EXPECT_EQ(front.takeResponse().value().getLe32(0), expect);
            expect++;
        }
    }
}

TEST(RingTest, ConsumePastProducerRefused)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(page).init();
    FrontRing front(page);
    BackRing back(page);

    // Nothing published yet: both consumers must refuse.
    EXPECT_FALSE(back.takeRequest().ok());
    EXPECT_FALSE(front.takeResponse().ok());

    // One request in, one out — the next take must refuse again
    // rather than read an unpublished slot.
    ASSERT_TRUE(front.startRequest().ok());
    front.pushRequests();
    ASSERT_TRUE(back.takeRequest().ok());
    auto over = back.takeRequest();
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.error().kind, Error::Kind::Exhausted);

    // A response published beyond it is likewise the end of the line.
    ASSERT_TRUE(back.startResponse().ok());
    back.pushResponses();
    ASSERT_TRUE(front.takeResponse().ok());
    EXPECT_FALSE(front.takeResponse().ok());
}

TEST(RingTest, CountersWrapAt32Bits)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing shared(page);
    shared.init();

    // Seed the published counters just below the 2^32 wrap, as a ring
    // that has been running for a very long time would look, then let
    // both ends adopt them via resume().
    u32 start = u32(0) - 6;
    shared.setReqProd(start);
    shared.setRspProd(start);
    shared.setReqEvent(start + 1);
    shared.setRspEvent(start + 1);
    FrontRing front(page);
    BackRing back(page);
    front.resume();
    back.resume();

    u32 value = 0;
    for (int round = 0; round < 3; round++) {
        for (u32 i = 0; i < RingLayout::slotCount; i++) {
            auto r = front.startRequest();
            ASSERT_TRUE(r.ok());
            r.value().setLe32(0, value + i);
        }
        front.pushRequests();
        while (back.unconsumedRequests() > 0) {
            CstructView q = back.takeRequest().value();
            CstructView s = back.startResponse().value();
            s.setLe32(0, q.getLe32(0));
        }
        back.pushResponses();
        while (front.unconsumedResponses() > 0) {
            ASSERT_EQ(front.takeResponse().value().getLe32(0), value);
            value++;
        }
    }
    EXPECT_EQ(value, 3 * RingLayout::slotCount);
    EXPECT_LT(shared.reqProd(), start)
        << "the free-running counter must have wrapped through zero";
    EXPECT_EQ(front.freeRequests(), RingLayout::slotCount);
}

TEST(RingTest, NotificationSuppression)
{
    Cstruct page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(page).init();
    FrontRing front(page);
    BackRing back(page);

    ASSERT_TRUE(front.startRequest().ok());
    EXPECT_TRUE(front.pushRequests());
    // Backend drains but does not re-arm -> next push needs no notify.
    ASSERT_TRUE(back.takeRequest().ok());
    ASSERT_TRUE(front.startRequest().ok());
    EXPECT_FALSE(front.pushRequests())
        << "consumer did not request a wakeup";
    // After final-check re-arm, pushes notify again.
    EXPECT_TRUE(back.finalCheckForRequests())
        << "a request raced in before re-arm";
}

// ---- vchan -----------------------------------------------------------------

class VchanTest : public HvTest
{
};

TEST_F(VchanTest, ByteStreamRoundTrip)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto ch = Vchan::connect(a, b);

    Cstruct msg = Cstruct::ofString("hello vchan");
    EXPECT_EQ(ch->endA().write(msg), msg.length());
    engine.run();
    EXPECT_EQ(ch->endB().readAvailable(), msg.length());
    Cstruct got = ch->endB().read(64);
    EXPECT_EQ(got.toString(), "hello vchan");
}

TEST_F(VchanTest, NotifySuppressionWhileStreaming)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto ch = Vchan::connect(a, b);

    Cstruct chunk = Cstruct::create(1000);
    // 10 writes while the reader never drains: only the first
    // (empty->nonempty) transition may notify.
    for (int i = 0; i < 10; i++)
        ch->endA().write(chunk);
    EXPECT_EQ(ch->notifies(), 1u);
}

TEST_F(VchanTest, BackpressureAndWakeup)
{
    Domain &a = hv.createDomain("a", GuestKind::Unikernel, 32);
    Domain &b = hv.createDomain("b", GuestKind::Unikernel, 32);
    auto ch = Vchan::connect(a, b);

    Cstruct big = Cstruct::create(Vchan::ringBytes);
    EXPECT_EQ(ch->endA().write(big), Vchan::ringBytes);
    EXPECT_EQ(ch->endA().write(big), 0u) << "ring is full";

    bool space = false;
    ch->endA().onSpaceAvailable([&] { space = true; });
    ch->endB().read(4096);
    engine.run();
    EXPECT_TRUE(space) << "reader must wake a blocked writer";
}

// ---- Boot model (Figs 5 & 6) -------------------------------------------------

class BootTest : public HvTest
{
};

TEST_F(BootTest, UnikernelBootsFasterThanDebianApache)
{
    Toolstack ts(hv, Toolstack::Mode::Synchronous);
    Duration uk_total, apache_total;
    ts.boot({"uk", GuestKind::Unikernel, 256, 1, nullptr},
            [&](Domain &, BootBreakdown b) { uk_total = b.total(); });
    engine.run();
    ts.boot({"la", GuestKind::LinuxDebianApache, 256, 1, nullptr},
            [&](Domain &, BootBreakdown b) { apache_total = b.total(); });
    engine.run();
    // Fig 5: Mirage boots in under half the Debian+Apache time.
    EXPECT_LT(uk_total.ns() * 2, apache_total.ns());
}

TEST_F(BootTest, BuilderShareGrowsWithMemory)
{
    // Fig 5: at 3072 MiB, domain building dominates Mirage's boot.
    Duration small_build = Toolstack::buildCost(64);
    Duration big_build = Toolstack::buildCost(3072);
    Duration init = Toolstack::guestInitCost(GuestKind::Unikernel, 3072);
    EXPECT_GT(big_build.ns(), small_build.ns());
    double share = double(big_build.ns()) /
                   double((big_build + init).ns());
    EXPECT_GT(share, 0.55);
}

TEST_F(BootTest, ParallelToolstackUnder50ms)
{
    // Fig 6: with the async toolstack, Mirage starts in < 50 ms.
    Toolstack ts(hv, Toolstack::Mode::Parallel);
    Duration startup;
    ts.boot({"uk", GuestKind::Unikernel, 128, 1, nullptr},
            [&](Domain &, BootBreakdown b) { startup = b.guestInit; });
    engine.run();
    EXPECT_LT(startup.ns(), Duration::millis(50).ns());
    Duration linux_startup =
        Toolstack::guestInitCost(GuestKind::LinuxMinimal, 128);
    EXPECT_GT(linux_startup.ns(), startup.ns());
}

TEST_F(BootTest, SynchronousToolstackSerialisesBuilds)
{
    Toolstack ts(hv, Toolstack::Mode::Synchronous);
    std::vector<i64> ready;
    for (int i = 0; i < 3; i++) {
        ts.boot({"uk", GuestKind::Unikernel, 64, 1, nullptr},
                [&](Domain &, BootBreakdown) {
                    ready.push_back(engine.now().ns());
                });
    }
    engine.run();
    ASSERT_EQ(ready.size(), 3u);
    Duration build = Toolstack::buildCost(64);
    // Each successive boot waits for the previous build.
    EXPECT_GE(ready[1] - ready[0], build.ns());
    EXPECT_GE(ready[2] - ready[1], build.ns());
}

TEST_F(BootTest, EntryRunsOnceReady)
{
    Toolstack ts(hv, Toolstack::Mode::Parallel);
    bool entered = false;
    ts.boot({"uk", GuestKind::Unikernel, 64, 1,
             [&](Domain &d) {
                 entered = true;
                 EXPECT_EQ(d.state(), DomainState::Running);
             }},
            nullptr);
    engine.run();
    EXPECT_TRUE(entered);
}

// ---- Netback / bridge --------------------------------------------------------

namespace {

/** A raw bridge port for injecting/capturing frames in tests. */
class TestPort : public BridgeEndpoint
{
  public:
    explicit TestPort(MacBytes mac) : mac_(mac) {}
    MacBytes mac() const override { return mac_; }
    void
    frameFromBridge(const Cstruct &frame) override
    {
        received.push_back(frame);
    }
    std::vector<Cstruct> received;

  private:
    MacBytes mac_;
};

Cstruct
makeFrame(MacBytes dst, MacBytes src, const std::string &payload)
{
    Cstruct f = Cstruct::create(14 + payload.size());
    for (int i = 0; i < 6; i++) {
        f.setU8(std::size_t(i), dst[std::size_t(i)]);
        f.setU8(std::size_t(6 + i), src[std::size_t(i)]);
    }
    f.setBe16(12, 0x0800);
    for (std::size_t i = 0; i < payload.size(); i++)
        f.setU8(14 + i, u8(payload[i]));
    return f;
}

} // namespace

TEST_F(HvTest, BridgeLearnsAndSwitches)
{
    Bridge br(engine, "br0");
    MacBytes m1{1, 0, 0, 0, 0, 1}, m2{1, 0, 0, 0, 0, 2},
        m3{1, 0, 0, 0, 0, 3};
    TestPort p1(m1), p2(m2), p3(m3);
    br.attach(&p1);
    br.attach(&p2);
    br.attach(&p3);

    // Unknown destination floods; sources get learned.
    br.send(&p1, makeFrame(m2, m1, "x"));
    engine.run();
    EXPECT_EQ(p2.received.size(), 1u);
    EXPECT_EQ(p3.received.size(), 1u) << "unknown dst must flood";

    // Reply: p1 is now known, unicast only.
    br.send(&p2, makeFrame(m1, m2, "y"));
    engine.run();
    EXPECT_EQ(p1.received.size(), 1u);
    EXPECT_EQ(p3.received.size(), 1u) << "no flood after learning";
    EXPECT_EQ(br.framesSwitched(), 1u);
}

TEST_F(HvTest, BridgeBroadcastReachesAll)
{
    Bridge br(engine, "br0");
    MacBytes bcast{0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    MacBytes m1{2, 0, 0, 0, 0, 1}, m2{2, 0, 0, 0, 0, 2};
    TestPort p1(m1), p2(m2);
    br.attach(&p1);
    br.attach(&p2);
    br.send(&p1, makeFrame(bcast, m1, "arp"));
    engine.run();
    EXPECT_EQ(p2.received.size(), 1u);
    EXPECT_EQ(p1.received.size(), 0u) << "no reflection to sender";
}

// ---- Blkback / virtual disk ---------------------------------------------------

TEST_F(HvTest, DiskSyncRoundTrip)
{
    VirtualDisk disk(engine, "d0", 1024);
    Cstruct w = Cstruct::create(512 * 3);
    for (std::size_t i = 0; i < w.length(); i++)
        w.setU8(i, u8(i % 251));
    ASSERT_TRUE(disk.writeSync(10, 3, w).ok());
    Cstruct r = Cstruct::create(512 * 3);
    ASSERT_TRUE(disk.readSync(10, 3, r).ok());
    EXPECT_TRUE(r.contentEquals(w));
}

TEST_F(HvTest, DiskRejectsOutOfRange)
{
    VirtualDisk disk(engine, "d0", 100);
    Cstruct buf = Cstruct::create(512);
    EXPECT_FALSE(disk.readSync(100, 1, buf).ok());
    EXPECT_FALSE(disk.writeSync(99, 2, buf).ok());
}

TEST_F(HvTest, DiskRunsStraddleChunks)
{
    // The disk stores 8-sector chunks. A write that starts mid-chunk
    // and spans four chunks, and one sector at a chunk's end, must
    // read back the same through per-sector reads and through a run
    // that straddles them differently.
    constexpr std::size_t sector = 512;
    VirtualDisk disk(engine, "d0", 64);
    std::vector<u8> want(64 * sector, 0);
    Cstruct run = Cstruct::create(21 * sector); // sectors 5..25
    for (std::size_t i = 0; i < run.length(); i++) {
        run.setU8(i, u8(i * 31 + 7));
        want[5 * sector + i] = u8(i * 31 + 7);
    }
    ASSERT_TRUE(disk.writeSync(5, 21, run).ok());
    Cstruct last = Cstruct::create(sector); // sector 31 ends chunk 3
    last.fill(0x5a);
    ASSERT_TRUE(disk.writeSync(31, 1, last).ok());
    std::fill_n(want.begin() + 31 * sector, sector, u8(0x5a));

    Cstruct one = Cstruct::create(sector);
    for (u64 s = 0; s < 64; s++) {
        ASSERT_TRUE(disk.readSync(s, 1, one).ok()) << "sector " << s;
        for (std::size_t i = 0; i < sector; i++)
            ASSERT_EQ(one.getU8(i), want[s * sector + i])
                << "sector " << s << " byte " << i;
    }
    Cstruct span = Cstruct::create(27 * sector + 100); // sectors 3..29
    ASSERT_TRUE(disk.readSync(3, 27, span).ok());
    for (std::size_t i = 0; i < 27 * sector; i++)
        ASSERT_EQ(span.getU8(i), want[3 * sector + i]) << "byte " << i;
    ASSERT_TRUE(disk.readSync(24, 8, span).ok()); // all of chunk 3
    for (std::size_t i = 0; i < 8 * sector; i++)
        ASSERT_EQ(span.getU8(i), want[24 * sector + i]) << "byte " << i;

    // Bounds: past the end or into a short buffer fails and writes
    // nothing; the disk's last sector is still reachable.
    EXPECT_FALSE(disk.readSync(60, 5, span).ok());
    EXPECT_FALSE(disk.writeSync(62, 3, span).ok());
    EXPECT_FALSE(disk.readSync(0, 2, one).ok());
    EXPECT_FALSE(disk.writeSync(40, 2, one).ok());
    ASSERT_TRUE(disk.readSync(62, 2, span).ok());
    for (std::size_t i = 0; i < 2 * sector; i++)
        ASSERT_EQ(span.getU8(i), 0) << "byte " << i;
    ASSERT_TRUE(disk.readSync(40, 1, one).ok());
    for (std::size_t i = 0; i < sector; i++)
        ASSERT_EQ(one.getU8(i), 0) << "byte " << i;
}

TEST_F(HvTest, DiskAsyncChargesServiceTime)
{
    VirtualDisk disk(engine, "d0", 1024);
    Cstruct buf = Cstruct::create(4096);
    i64 done_at = -1;
    disk.readAsync(0, 8, buf, [&](Status st) {
        EXPECT_TRUE(st.ok());
        done_at = engine.now().ns();
    });
    engine.run();
    ASSERT_GE(done_at, 0);
    EXPECT_GE(done_at, sim::costs().ssdPerRequest.ns());
}

TEST_F(HvTest, BlkbackServesRingRequests)
{
    Domain &dom0 = hv.createDomain("dom0", GuestKind::LinuxMinimal, 512);
    Domain &uk = hv.createDomain("uk", GuestKind::Unikernel, 64);
    VirtualDisk disk(engine, "d0", 4096);
    Blkback back(dom0, disk);

    // Seed sector 5 with a pattern.
    Cstruct pattern = Cstruct::create(512);
    pattern.fill(0xcd);
    ASSERT_TRUE(disk.writeSync(5, 1, pattern).ok());

    // Frontend-side setup, hand-rolled: ring page + event channel.
    Cstruct ring_page = Cstruct::create(RingLayout::pageBytes());
    SharedRing(ring_page).init();
    FrontRing front(ring_page);
    GrantRef ring_ref =
        uk.grantTable().grantAccess(dom0.id(), ring_page, false);
    auto [uk_port, dom0_port] = hv.events().connect(uk, dom0);
    back.connect(uk, ring_ref, dom0_port);

    Cstruct data_page = Cstruct::create(pageSize);
    GrantRef data_ref =
        uk.grantTable().grantAccess(dom0.id(), data_page, false);

    CstructView req = front.startRequest().value();
    req.setLe64(BlkifWire::reqId, 99);
    req.setU8(BlkifWire::reqOp, BlkifWire::opRead);
    req.setU8(BlkifWire::reqSectors, 1);
    req.setLe64(BlkifWire::reqSector, 5);
    req.setLe32(BlkifWire::reqGrant, data_ref);
    if (front.pushRequests())
        hv.events().notify(uk, uk_port);
    engine.run();

    ASSERT_EQ(front.unconsumedResponses(), 1u);
    CstructView rsp = front.takeResponse().value();
    EXPECT_EQ(rsp.getLe64(BlkifWire::rspId), 99u);
    EXPECT_EQ(rsp.getU8(BlkifWire::rspStatus), BlkifWire::statusOk);
    EXPECT_TRUE(data_page.sub(0, 512).contentEquals(pattern));
}

} // namespace
} // namespace mirage::xen
