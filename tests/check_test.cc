/**
 * @file
 * Tests for the invariant checker (the "unikernel sanitizer"): each
 * shadow-state checker must catch its injected violation, a healthy
 * appliance must run violation-free with the checker attached, and
 * Mode::Fatal must abort on the first violation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.h"
#include "core/cloud.h"
#include "hypervisor/blkback.h"
#include "hypervisor/ring.h"
#include "hypervisor/xen.h"
#include "runtime/gc_heap.h"

namespace mirage::check {
namespace {

/** Engine + hypervisor with a counting checker attached and enabled. */
class CheckedHvTest : public ::testing::Test
{
  protected:
    CheckedHvTest()
    {
        engine.setChecker(&ck);
        ck.enable();
    }

    sim::Engine engine;
    Checker ck{Checker::Mode::Count};
    xen::Hypervisor hv{engine};
};

// ---- Grant table ------------------------------------------------------------

TEST_F(CheckedHvTest, GrantUseAfterRevokeCaught)
{
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    xen::Domain &b = hv.createDomain("b", xen::GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(mirage::pageSize);
    xen::GrantRef ref = a.grantTable().grantAccess(b.id(), page, false);
    ASSERT_TRUE(a.grantTable().endAccess(ref).ok());

    EXPECT_FALSE(hv.grantMap(b, a, ref, false).ok());
    EXPECT_EQ(ck.violations(Subsystem::Grant), 1u);
    EXPECT_NE(ck.lastViolation().find("use_after_revoke"),
              std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedHvTest, GrantUnmapWithoutMapCaught)
{
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    xen::Domain &b = hv.createDomain("b", xen::GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(mirage::pageSize);
    xen::GrantRef ref = a.grantTable().grantAccess(b.id(), page, false);

    EXPECT_FALSE(hv.grantUnmap(b, a, ref).ok());
    EXPECT_EQ(ck.violations(Subsystem::Grant), 1u);
    EXPECT_NE(ck.lastViolation().find("unmap_without_map"),
              std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedHvTest, GrantLeakAtTeardownCaught)
{
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    xen::Domain &b = hv.createDomain("b", xen::GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(mirage::pageSize);
    xen::GrantRef ref = a.grantTable().grantAccess(b.id(), page, false);
    ASSERT_TRUE(hv.grantMap(b, a, ref, false).ok());
    ASSERT_EQ(ck.shadowMappedGrants(), 1u);

    // The granting domain dies while the peer still holds the mapping.
    a.shutdown();
    EXPECT_EQ(ck.violations(Subsystem::Grant), 1u);
    EXPECT_NE(ck.lastViolation().find("mapping_outlives_domain"),
              std::string::npos)
        << ck.lastViolation();
    EXPECT_EQ(ck.shadowMappedGrants(), 0u)
        << "teardown must drop the domain's shadow entries";
}

TEST_F(CheckedHvTest, RevokeClassificationHoldsAfterManyCycles)
{
    // The checker tells a revoked ref from one never issued by the
    // table's issue counter, not by remembering each revoke, so a long
    // run of grant/revoke cycles leaves nothing behind to grow.
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    xen::Domain &b = hv.createDomain("b", xen::GuestKind::Unikernel, 32);
    Cstruct page = Cstruct::create(mirage::pageSize);
    xen::GrantRef first = 0, last = 0;
    for (int i = 0; i < 100000; i++) {
        last = a.grantTable().grantAccess(b.id(), page, false);
        if (i == 0)
            first = last;
        ASSERT_TRUE(a.grantTable().endAccess(last).ok());
    }
    ASSERT_EQ(ck.violations(), 0u);
    EXPECT_EQ(a.grantTable().activeGrants(), 0u);

    auto classify = [&](auto &&op) {
        u64 before = ck.violations(Subsystem::Grant);
        op();
        EXPECT_EQ(ck.violations(Subsystem::Grant), before + 1);
        std::string v = ck.lastViolation();
        return v.substr(0, v.find(':'));
    };
    xen::GrantRef never = last + 1000;
    EXPECT_EQ(classify([&] { (void)a.grantTable().endAccess(first); }),
              "grant.double_revoke");
    EXPECT_EQ(classify([&] { (void)a.grantTable().endAccess(never); }),
              "grant.revoke_unknown_ref");
    EXPECT_EQ(classify([&] { (void)hv.grantMap(b, a, last, false); }),
              "grant.use_after_revoke");
    EXPECT_EQ(classify([&] { (void)hv.grantMap(b, a, never, false); }),
              "grant.map_unknown_ref");
}

TEST(CheckerTeardownTest, EachDomainReportsItsOwnGrantsAndMappings)
{
    Checker ck{Checker::Mode::Count};
    ck.enable();
    std::vector<std::string> seen;
    ck.setViolationHook([&] { seen.push_back(ck.lastViolation()); });
    auto drain = [&] {
        std::vector<std::string> out = std::move(seen);
        seen.clear();
        std::sort(out.begin(), out.end());
        return out;
    };

    // dom1 grants ref 7 to dom2 (mapped twice) and ref 8 to dom3;
    // dom2 grants ref 9 to dom1 (mapped once); dom4 revokes its ref 1.
    ck.grantCreated(1, 7, 2);
    ck.grantCreated(1, 8, 3);
    ck.grantCreated(2, 9, 1);
    ck.grantCreated(4, 1, 5);
    ck.grantMap(1, 7, 2, true);
    ck.grantMap(1, 7, 2, true);
    ck.grantMap(1, 8, 3, true);
    ck.grantMap(2, 9, 1, true);
    ck.grantEndAccess(4, 1, true);
    EXPECT_EQ(ck.shadowMappedGrants(), 3u);
    EXPECT_TRUE(drain().empty());

    // dom2 dies holding dom1's ref 7, with its own ref 9 still mapped.
    ck.domainTeardown(2);
    EXPECT_EQ(drain(),
              (std::vector<std::string>{
                  "grant.mapping_outlives_domain: dom2 tore down with ref "
                  "9 still mapped 1 time(s) by dom1",
                  "grant.teardown_holding_mappings: dom2 tore down "
                  "holding 2 mapping(s) of dom1's ref 7"}));
    EXPECT_EQ(ck.shadowMappedGrants(), 1u);
    // The dead mapper's mappings died with it: ref 7 revokes cleanly.
    ck.grantEndAccess(1, 7, true);
    EXPECT_TRUE(drain().empty());

    // dom1 dies: only ref 8, still mapped by dom3, is left to report.
    ck.domainTeardown(1);
    EXPECT_EQ(drain(), (std::vector<std::string>{
                           "grant.mapping_outlives_domain: dom1 tore down "
                           "with ref 8 still mapped 1 time(s) by dom3"}));
    ck.domainTeardown(3);
    EXPECT_TRUE(drain().empty());
    EXPECT_EQ(ck.shadowMappedGrants(), 0u);

    // A domain's revoked refs are remembered until its teardown.
    ck.grantEndAccess(4, 1, true);
    ck.domainTeardown(4);
    ck.grantEndAccess(4, 1, true);
    EXPECT_EQ(drain(), (std::vector<std::string>{
                           "grant.double_revoke: dom4 endAccess(ref=1)",
                           "grant.revoke_unknown_ref: dom4 endAccess(ref=1)"}));
    EXPECT_EQ(ck.violations(Subsystem::Grant), 5u);
}

// ---- Shared rings -----------------------------------------------------------

TEST_F(CheckedHvTest, RingProducerScribbleCaught)
{
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing shared(page);
    shared.init();
    xen::FrontRing front(page);
    xen::BackRing back(page);
    front.attachChecker(&ck, "ring.test");
    back.attachChecker(&ck, "ring.test");

    ASSERT_TRUE(front.startRequest().ok());
    front.pushRequests();
    // A buggy (or hostile) frontend scribbles on the shared index,
    // claiming more requests than were ever published.
    shared.setReqProd(shared.reqProd() + xen::RingLayout::slotCount);
    EXPECT_FALSE(back.takeRequest().ok()) << "a runaway index is refused";
    EXPECT_GE(ck.violations(Subsystem::Ring), 1u);
    EXPECT_NE(ck.lastViolation().find("req_prod"), std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedHvTest, RingOverrunCaughtByShadow)
{
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(page).init();
    xen::FrontRing front(page);
    front.attachChecker(&ck, "ring.test");
    u32 id = ck.ringAttach(page.data(), "ring.test",
                           xen::RingLayout::slotCount, 0, 0);

    // The implementation's flow control refuses overfill...
    for (u32 i = 0; i < xen::RingLayout::slotCount; i++)
        ASSERT_TRUE(front.startRequest().ok());
    EXPECT_FALSE(front.startRequest().ok());
    EXPECT_EQ(ck.violations(), 0u);
    // ... so inject the overrun at the hook, as a broken ring end
    // that ignored flow control would: one request past the slots.
    ck.ringStartRequest(id, xen::RingLayout::slotCount + 1, 0);
    EXPECT_EQ(ck.violations(Subsystem::Ring), 1u);
    EXPECT_NE(ck.lastViolation().find("request_overrun"),
              std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedHvTest, FrontRingRefusesUnsolicitedResponses)
{
    // A hostile backend answers two requests with three responses,
    // writing the shared header itself.
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing shared(page);
    shared.init();
    xen::FrontRing front(page);
    front.attachChecker(&ck, "ring.test");
    for (int i = 0; i < 2; i++)
        ASSERT_TRUE(front.startRequest().ok());
    front.pushRequests();
    shared.setRspProd(3);

    EXPECT_EQ(front.unconsumedResponses(), 2u);
    for (int i = 0; i < 2; i++) {
        ASSERT_TRUE(front.takeResponse().ok());
        EXPECT_LE(front.freeRequests(), xen::RingLayout::slotCount);
    }
    EXPECT_EQ(front.unconsumedResponses(), 0u);
    // The first take saw rsp_prod written behind the protocol's back.
    u64 before = ck.violations(Subsystem::Ring);
    EXPECT_EQ(before, 1u) << ck.report();
    auto third = front.takeResponse();
    ASSERT_FALSE(third.ok()) << "a third response answers nothing";
    EXPECT_EQ(third.error().kind, Error::Kind::State);
    EXPECT_EQ(front.freeRequests(), xen::RingLayout::slotCount);
    EXPECT_FALSE(front.finalCheckForResponses());
    EXPECT_EQ(front.freeRequests(), xen::RingLayout::slotCount);
    EXPECT_NE(ck.lastViolation().find("unsolicited_response"),
              std::string::npos)
        << ck.lastViolation();
    // Counted once, however often the frontend looks again.
    EXPECT_EQ(ck.violations(Subsystem::Ring) - before, 1u) << ck.report();

    // Four more forged past the ring's two answered requests: four more
    // refusals, and the frontend's window stays whole.
    shared.setRspProd(7);
    EXPECT_FALSE(front.takeResponse().ok());
    EXPECT_FALSE(front.finalCheckForResponses());
    EXPECT_EQ(ck.violations(Subsystem::Ring) - before, 5u) << ck.report();
    EXPECT_EQ(front.freeRequests(), xen::RingLayout::slotCount);
}

TEST_F(CheckedHvTest, BackRingRefusesARunawayProducer)
{
    // A hostile frontend writes req_prod itself, past the ring.
    constexpr u32 slots = xen::RingLayout::slotCount;
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing shared(page);
    shared.init();
    xen::BackRing back(page);
    back.attachChecker(&ck, "ring.test");
    shared.setReqProd(slots);
    EXPECT_EQ(back.unconsumedRequests(), slots) << "a full ring is honest";

    // One past the ring, or half the counter space: refused outright,
    // so a forged index costs the backend no work.
    for (u32 prod : {slots + 1, 0x80000000u}) {
        shared.setReqProd(prod);
        EXPECT_EQ(back.unconsumedRequests(), 0u);
        auto r = back.takeRequest();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().kind, Error::Kind::State);
        EXPECT_FALSE(back.finalCheckForRequests());
    }
    // Each runaway index is counted once, however often it is read.
    EXPECT_EQ(ck.violations(Subsystem::Ring), 2u) << ck.report();
    EXPECT_NE(ck.lastViolation().find("req_prod_overrun"),
              std::string::npos)
        << ck.lastViolation();

    // A sane index again and the ring resumes.
    shared.setReqProd(4);
    EXPECT_EQ(back.unconsumedRequests(), 4u);
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(back.takeRequest().ok());
    EXPECT_EQ(ck.violations(Subsystem::Ring), 3u)
        << "the first take sees req_prod written behind the protocol";

    // Requests held unanswered shrink the room: a full ring's worth on
    // top of them is a runaway too, until they are answered.
    shared.setReqProd(4 + slots);
    EXPECT_EQ(back.unconsumedRequests(), 0u);
    EXPECT_FALSE(back.finalCheckForRequests());
    EXPECT_EQ(ck.violations(Subsystem::Ring), 4u) << ck.report();
    for (int i = 0; i < 4; i++)
        ASSERT_TRUE(back.startResponse().ok());
    EXPECT_EQ(back.unconsumedRequests(), slots);
    EXPECT_EQ(ck.violations(Subsystem::Ring), 4u) << ck.report();
}

TEST_F(CheckedHvTest, ResponseWithoutRequestCaught)
{
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(page).init();
    xen::BackRing back(page);
    back.attachChecker(&ck, "ring.test");

    // A response started with no request ever consumed.
    ASSERT_TRUE(back.startResponse().ok());
    EXPECT_EQ(ck.violations(Subsystem::Ring), 1u);
    EXPECT_NE(ck.lastViolation().find("response_without_request"),
              std::string::npos)
        << ck.lastViolation();
}

// ---- GC handles -------------------------------------------------------------

class CheckedGcTest : public ::testing::Test
{
  protected:
    CheckedGcTest()
    {
        engine.setChecker(&ck);
        ck.enable();
    }

    sim::Engine engine;
    Checker ck{Checker::Mode::Count};
    sim::Cpu cpu{engine, "uk"};
};

TEST_F(CheckedGcTest, DoubleReleaseCaughtAndHeapUnharmed)
{
    rt::GcHeap heap(cpu, pvboot::MemoryBackend::xenExtent(), 64 * 1024);
    rt::CellRef a = heap.alloc(256);
    rt::CellRef b = heap.alloc(256);
    (void)b;
    heap.release(a);
    u64 live = heap.stats().liveBytes;

    heap.release(a);
    EXPECT_EQ(ck.violations(Subsystem::Gc), 1u);
    EXPECT_NE(ck.lastViolation().find("double_release"),
              std::string::npos)
        << ck.lastViolation();
    EXPECT_EQ(heap.stats().liveBytes, live)
        << "a rejected release must not touch heap accounting";
}

TEST_F(CheckedGcTest, ReleaseOfNeverAllocatedCaught)
{
    rt::GcHeap heap(cpu, pvboot::MemoryBackend::xenExtent(), 64 * 1024);
    heap.release(rt::CellRef(1234));
    EXPECT_EQ(ck.violations(Subsystem::Gc), 1u);
    EXPECT_NE(ck.lastViolation().find("release_unknown_cell"),
              std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedGcTest, FreedHandlesArePoisonedNotRecycled)
{
    rt::GcHeap heap(cpu, pvboot::MemoryBackend::xenExtent(), 64 * 1024);
    rt::CellRef a = heap.alloc(128);
    heap.release(a);
    // With the checker enabled the heap must not recycle the slot, so
    // a stale `a` can never alias a newer allocation.
    rt::CellRef b = heap.alloc(128);
    EXPECT_NE(a, b);
    heap.release(b);
    EXPECT_EQ(ck.violations(), 0u);
}

TEST_F(CheckedGcTest, LeakReportedAtHeapShutdown)
{
    {
        rt::GcHeap heap(cpu, pvboot::MemoryBackend::xenExtent(),
                        64 * 1024);
        heap.alloc(512);
        heap.alloc(512); // both leaked on purpose
    }
    EXPECT_EQ(ck.gcLeakedCells(), 2u);
    EXPECT_GE(ck.gcLeakedBytes(), 1024u);
    EXPECT_EQ(ck.violations(), 0u)
        << "a leak is a report, not a protocol violation";
    EXPECT_NE(ck.report().find("leaked_cells"), std::string::npos);
}

// ---- Event channels ---------------------------------------------------------

TEST_F(CheckedHvTest, NotifyClosedPortCaught)
{
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    xen::Domain &b = hv.createDomain("b", xen::GuestKind::Unikernel, 32);
    auto [pa, pb] = hv.events().connect(a, b);
    (void)pb;
    hv.events().close(a, pa);

    EXPECT_FALSE(hv.events().notify(a, pa).ok());
    EXPECT_EQ(ck.violations(Subsystem::Event), 1u);
    EXPECT_NE(ck.lastViolation().find("notify_closed_port"),
              std::string::npos)
        << ck.lastViolation();
}

TEST_F(CheckedHvTest, NotifyUnboundPortCaught)
{
    xen::Domain &a = hv.createDomain("a", xen::GuestKind::Unikernel, 32);
    EXPECT_FALSE(hv.events().notify(a, xen::Port(999)).ok());
    EXPECT_EQ(ck.violations(Subsystem::Event), 1u);
    EXPECT_NE(ck.lastViolation().find("notify_unbound_port"),
              std::string::npos)
        << ck.lastViolation();
}

// ---- Whole-appliance runs must be violation-free ----------------------------

TEST(CheckedCloudTest, PingTrafficRunsViolationFree)
{
    core::Cloud cloud;
    cloud.checker().enable();
    core::Guest &a =
        cloud.startUnikernel("a", net::Ipv4Addr(10, 0, 0, 2));
    core::Guest &b =
        cloud.startUnikernel("b", net::Ipv4Addr(10, 0, 0, 3));
    (void)a;

    int replies = 0;
    for (u16 seq = 1; seq <= 4; seq++)
        b.stack.icmp().ping(net::Ipv4Addr(10, 0, 0, 2), seq, 32,
                            [&](Result<Duration> rtt) {
                                if (rtt.ok())
                                    replies++;
                            });
    cloud.run();
    EXPECT_EQ(replies, 4);
    EXPECT_EQ(cloud.checker().violations(), 0u)
        << cloud.checker().report();
}

TEST(CheckedCloudTest, BlkbackRingTrafficRunsViolationFree)
{
    sim::Engine engine;
    check::Checker ck{Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Hypervisor hv{engine};

    xen::Domain &dom0 =
        hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512);
    xen::Domain &uk =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    xen::VirtualDisk disk(engine, "d0", 4096);
    xen::Blkback back(dom0, disk);

    Cstruct pattern = Cstruct::create(512);
    pattern.fill(0xcd);
    ASSERT_TRUE(disk.writeSync(5, 1, pattern).ok());

    Cstruct ring_page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing(ring_page).init();
    xen::FrontRing front(ring_page);
    front.attachChecker(&ck, "ring.blkif");
    xen::GrantRef ring_ref =
        uk.grantTable().grantAccess(dom0.id(), ring_page, false);
    auto [uk_port, dom0_port] = hv.events().connect(uk, dom0);
    back.connect(uk, ring_ref, dom0_port);

    Cstruct data_page = Cstruct::create(mirage::pageSize);
    xen::GrantRef data_ref =
        uk.grantTable().grantAccess(dom0.id(), data_page, false);

    CstructView req = front.startRequest().value();
    req.setLe64(xen::BlkifWire::reqId, 7);
    req.setU8(xen::BlkifWire::reqOp, xen::BlkifWire::opRead);
    req.setU8(xen::BlkifWire::reqSectors, 1);
    req.setLe64(xen::BlkifWire::reqSector, 5);
    req.setLe32(xen::BlkifWire::reqGrant, data_ref);
    if (front.pushRequests())
        hv.events().notify(uk, uk_port);
    engine.run();

    ASSERT_EQ(front.unconsumedResponses(), 1u);
    EXPECT_EQ(front.takeResponse().value().getU8(xen::BlkifWire::rspStatus),
              xen::BlkifWire::statusOk);
    EXPECT_EQ(ck.violations(), 0u) << ck.report();

    // Clean teardown: disconnecting the backend unmaps everything, so
    // the guest's shutdown audit finds no leaked mappings.
    uk.shutdown();
    EXPECT_EQ(ck.violations(), 0u) << ck.report();
}

// ---- Mode::Fatal ------------------------------------------------------------

using CheckDeathTest = CheckedHvTest;

TEST_F(CheckDeathTest, FatalModePanicsOnFirstViolation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ck.setMode(Checker::Mode::Fatal);
    EXPECT_DEATH(ck.violation(Subsystem::Ring, "req_prod_backwards",
                              "injected"),
                 "check: ring.req_prod_backwards");
}

} // namespace
} // namespace mirage::check
