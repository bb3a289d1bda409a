/**
 * @file
 * Tests for the persistent-grant, batched-doorbell datapath: grant pool
 * reuse and exhaustion fallback, registry eviction at its cap, backend
 * map-cache eviction, doorbell suppression under polling, ring event
 * suppression across counter wraparound, rx-stall accounting, tx chain
 * abort, and a checker-audited teardown with persistent grants live.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rand.h"
#include "check/check.h"
#include "drivers/blkif.h"
#include "drivers/netif.h"
#include "hypervisor/ring.h"
#include "sim/tuning.h"
#include "trace/flow.h"

namespace mirage::drivers {
namespace {

/** DriversTest-style rig with a telemetry bundle that also restores
 *  the tuning table. */
class DatapathTest : public ::testing::Test
{
  protected:
    DatapathTest()
        : saved_tuning_(sim::tuning()), hv(engine),
          bridge(engine, "br0"),
          dom0(hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512)),
          netback(dom0, bridge)
    {
    }

    ~DatapathTest() override { sim::tuning() = saved_tuning_; }

    sim::Tuning saved_tuning_;
    trace::Telemetry telemetry;
    sim::Engine engine{&telemetry};
    xen::Hypervisor hv;
    xen::Bridge bridge;
    xen::Domain &dom0;
    xen::Netback netback;

    /** notify() calls so far: the registry total. */
    u64
    notifications() const
    {
        const trace::Counter *c =
            telemetry.metrics.findCounter("evtchn.notifications");
        return c ? c->value() : 0;
    }

    static xen::MacBytes
    mac(u8 last)
    {
        return {0x00, 0x16, 0x3e, 0x00, 0x00, last};
    }

    static Cstruct
    frameTo(Netif &dst, Netif &src, const std::string &payload)
    {
        Cstruct page = src.allocTxPage().value();
        Cstruct f = page.sub(0, 14 + payload.size());
        for (int i = 0; i < 6; i++) {
            f.setU8(std::size_t(i), dst.mac()[std::size_t(i)]);
            f.setU8(std::size_t(6 + i), src.mac()[std::size_t(i)]);
        }
        f.setBe16(12, 0x0800);
        for (std::size_t i = 0; i < payload.size(); i++)
            f.setU8(14 + i, u8(payload[i]));
        return f;
    }
};

// ---- Grant pool -------------------------------------------------------------

TEST_F(DatapathTest, PoolReusesPagesAndFailsCleanlyAtCapacity)
{
    sim::tuning().frontendPoolPages = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());

    // Fill the pool; every page carries a live grant.
    std::vector<Cstruct> held;
    for (int i = 0; i < 4; i++)
        held.push_back(pool.acquirePage().value());
    EXPECT_EQ(pool.issued(), 4u);
    EXPECT_EQ(uk.grantTable().activeGrants(), 4u);
    EXPECT_EQ(pool.freePages(), 0u);

    // At capacity with every page busy: acquire must fail (the caller
    // falls back to a one-shot grant), never grow past the cap.
    EXPECT_FALSE(pool.acquirePage().ok());
    EXPECT_EQ(pool.pooledPages(), 4u);

    // Dropping the views frees the pages; reacquisition reuses the
    // existing grants instead of issuing new ones.
    held.clear();
    EXPECT_EQ(pool.freePages(), 4u);
    Cstruct page = pool.acquirePage().value();
    EXPECT_EQ(pool.issued(), 4u)
        << "reacquire must not issue a fresh grant";
    EXPECT_EQ(uk.grantTable().activeGrants(), 4u);

    // regionFor resolves the pooled page to its persistent grant.
    GrantPool::Region region = pool.regionFor(page.sub(128, 64));
    EXPECT_TRUE(region.persistent);
    EXPECT_EQ(region.offset, 128u);
    EXPECT_GT(pool.reused(), 0u);
}

TEST_F(DatapathTest, PoolScanPicksWhatAnExhaustiveFreeScanPicks)
{
    constexpr std::size_t cap = 8;
    sim::tuning().frontendPoolPages = cap;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());

    // Reference: the pool's pages in issue order, scanned round-robin
    // from the last pick, asking pageFree() (bufferIsFree) about every
    // page instead of skipping leased ones on their flag.
    std::vector<const Buffer *> pages;
    std::size_t hint = 0;
    auto reference = [&]() -> const Buffer * {
        for (std::size_t i = 0; i < pages.size(); i++) {
            std::size_t at = (hint + i) % pages.size();
            if (pool.bufferIsFree(pages[at])) {
                hint = (at + 1) % pages.size();
                return pages[at];
            }
        }
        return nullptr;
    };

    Rng rng(11);
    std::vector<Cstruct> held(8); // borrower views, some sub-views
    std::set<const Buffer *> mapped;
    std::vector<xen::GrantRef> mapped_refs;
    std::vector<Cstruct> backend;   // one cached map per mapped page
    std::vector<Cstruct> in_flight; // extra backend views: busy, unleased
    int reused = 0, exhausted = 0;
    for (int step = 0; step < 3000; step++) {
        held[rng.below(held.size())] = Cstruct();
        if (!in_flight.empty() && rng.below(2))
            in_flight.erase(in_flight.begin() +
                            long(rng.below(in_flight.size())));
        const Buffer *want = reference();
        auto got = pool.acquirePage();
        if (!want && pages.size() == cap) {
            EXPECT_FALSE(got.ok()) << "step " << step;
            exhausted++;
            continue;
        }
        ASSERT_TRUE(got.ok()) << "step " << step;
        Cstruct page = got.value();
        if (want) {
            ASSERT_EQ(page.buffer().get(), want) << "step " << step;
            reused++;
        } else {
            pages.push_back(page.buffer().get());
        }
        if (rng.below(3) == 0 &&
            mapped.insert(page.buffer().get()).second) {
            // The backend maps it persistently and caches the view.
            xen::GrantRef gref = pool.regionFor(page).gref;
            backend.push_back(
                uk.grantTable().mapFor(dom0.id(), gref, true).value());
            mapped_refs.push_back(gref);
        } else if (rng.below(4) == 0 && !backend.empty()) {
            // An in-flight backend op holds a mapped page without any
            // lease: only pageFree() can tell it is busy.
            in_flight.push_back(backend[rng.below(backend.size())]);
        }
        held[rng.below(held.size())] =
            rng.below(2) ? page : page.sub(64, 128);
        if (rng.below(4) == 0)
            held[rng.below(held.size())] = page.sub(0, 32);
    }
    EXPECT_EQ(pages.size(), cap);
    EXPECT_GT(reused, 1000);
    EXPECT_GT(exhausted, 0);
    held.clear();
    in_flight.clear();
    backend.clear();
    for (xen::GrantRef gref : mapped_refs)
        EXPECT_TRUE(uk.grantTable().unmapFor(dom0.id(), gref).ok());
    EXPECT_EQ(pool.freePages(), cap);
}

TEST_F(DatapathTest, PooledPageIsReusableOnceItsLastViewDrops)
{
    sim::tuning().frontendPoolPages = 2;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());
    int recycled = 0;
    pool.addRecycleListener([&] { recycled++; });

    Cstruct a = pool.acquirePage().value();
    Cstruct b = pool.acquirePage().value();
    const Buffer *b_buf = b.buffer().get();
    Cstruct tail = b.sub(256, 64);
    b = Cstruct();
    // The sub-view still rides b's lease: nothing to hand out.
    EXPECT_FALSE(pool.bufferIsFree(b_buf));
    EXPECT_EQ(recycled, 0);
    EXPECT_FALSE(pool.acquirePage().ok());
    tail = Cstruct();
    EXPECT_TRUE(pool.bufferIsFree(b_buf));
    EXPECT_EQ(recycled, 1);
    Cstruct again = pool.acquirePage().value();
    EXPECT_EQ(again.buffer().get(), b_buf);
    EXPECT_EQ(pool.issued(), 2u);
}

TEST_F(DatapathTest, RegistryEvictsColdestIdleEntryAtCap)
{
    sim::tuning().frontendRegistryCap = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    GrantPool pool(boot, dom0.id());
    xen::GrantTable &gt = uk.grantTable();

    // Four app buffers fill the registry in order a, b, c, d. The
    // registry and the grant table then hold each buffer, so a buffer
    // is freed exactly when its entry is evicted.
    Cstruct a = Cstruct::create(256), b = Cstruct::create(256),
            c = Cstruct::create(256), d = Cstruct::create(256);
    std::weak_ptr<Buffer> wa = a.buffer(), wc = c.buffer(),
                          wd = d.buffer();
    GrantPool::Region ra = pool.regionFor(a.sub(16, 32));
    GrantPool::Region rc = pool.regionFor(c);
    for (const Cstruct *v : {&b, &c, &d})
        EXPECT_TRUE(pool.regionFor(*v).persistent);
    EXPECT_TRUE(ra.persistent);
    EXPECT_EQ(ra.offset, 16u);
    EXPECT_EQ(pool.issued(), 4u);

    // a: the backend keeps a mapping but no view, so only the grant
    // table's map count says it is busy. b: the app still holds it.
    ASSERT_TRUE(gt.mapFor(dom0.id(), ra.gref, true).ok());
    a = Cstruct();

    // Re-registering c is a hit: same grant, nothing issued, and c
    // becomes the most recently used entry.
    GrantPool::Region hit = pool.regionFor(c.sub(8, 8));
    EXPECT_TRUE(hit.persistent);
    EXPECT_EQ(hit.gref, rc.gref);
    EXPECT_EQ(hit.offset, 8u);
    EXPECT_EQ(pool.issued(), 4u);
    c = Cstruct();
    d = Cstruct();

    // Recency, coldest first: a, b, d, c. A fifth buffer evicts d, the
    // coldest idle entry: a is mapped and b is held.
    Cstruct e = Cstruct::create(256);
    EXPECT_TRUE(pool.regionFor(e).persistent);
    EXPECT_EQ(pool.issued(), 5u);
    EXPECT_TRUE(wd.expired()) << "d, the coldest idle entry, is evicted";
    EXPECT_FALSE(wc.expired()) << "the hit kept c warm";
    EXPECT_FALSE(wa.expired());
    EXPECT_EQ(gt.activeGrants(), 4u);

    // Next the idle c goes; then a, b, e, f are all busy.
    Cstruct f = Cstruct::create(256);
    EXPECT_TRUE(pool.regionFor(f).persistent);
    EXPECT_TRUE(wc.expired());
    EXPECT_EQ(pool.issued(), 6u);

    // A registry full of busy entries refuses: no grant is issued and
    // no entry is revoked; the caller falls back to a one-shot grant.
    Cstruct g = Cstruct::create(256);
    GrantPool::Region refused = pool.regionFor(g);
    EXPECT_FALSE(refused.persistent);
    EXPECT_EQ(pool.issued(), 6u);
    EXPECT_EQ(gt.activeGrants(), 4u);
    EXPECT_FALSE(wa.expired());

    // Once the backend unmaps a, it is the coldest idle entry.
    ASSERT_TRUE(gt.unmapFor(dom0.id(), ra.gref).ok());
    EXPECT_TRUE(pool.regionFor(g).persistent);
    EXPECT_TRUE(wa.expired());
    EXPECT_EQ(pool.issued(), 7u);
    EXPECT_EQ(gt.activeGrants(), 4u);
}

TEST_F(DatapathTest, TrafficFallsBackToOneShotGrantsWithoutPool)
{
    // An empty pool (capacity 0) forces the one-shot path end to end:
    // traffic must still flow, with no persistent grants issued.
    sim::tuning().frontendPoolPages = 0;
    sim::tuning().frontendRegistryCap = 0;
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    nif_b.onFrame([](Cstruct) {});
    for (int i = 0; i < 8; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "oneshot"));
    engine.run();
    EXPECT_EQ(nif_a.txCompleted(), 8u);
    EXPECT_EQ(nif_b.rxDelivered(), 8u);
    EXPECT_EQ(nif_a.grantPool().issued(), 0u);
    EXPECT_EQ(nif_a.grantPool().reused(), 0u);
}

// ---- Backend map cache ------------------------------------------------------

TEST_F(DatapathTest, BackendMapCacheEvictsLruAtCap)
{
    sim::tuning().backendMapCacheCap = 4;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    xen::VirtualDisk disk(engine, "d0", 1u << 16);
    xen::Blkback back(dom0, disk);
    Blkif blk(boot, back);

    // Eight distinct pooled pages → eight distinct persistent grefs.
    std::vector<Cstruct> pages;
    for (int i = 0; i < 8; i++)
        pages.push_back(blk.allocPage().value());
    for (int i = 0; i < 8; i++) {
        auto w = blk.write(u64(i) * 8, 8, pages[std::size_t(i)]);
        engine.run();
        ASSERT_TRUE(w->resolvedOk()) << "write " << i;
    }
    EXPECT_LE(back.mapCache().size(), 4u)
        << "cache must stay within backendMapCacheCap";
    EXPECT_GE(back.mapCache().evictions(), 4u);
    EXPECT_EQ(back.mapCache().misses(), 8u);

    // An evicted gref is re-mapped transparently on next use.
    u64 misses_before = back.mapCache().misses();
    auto r = blk.read(0, 8, pages[0]);
    engine.run();
    ASSERT_TRUE(r->resolvedOk());
    EXPECT_EQ(back.mapCache().misses(), misses_before + 1)
        << "touching an evicted mapping pays one re-map";

    // A hot gref keeps hitting the cache.
    u64 hits_before = back.mapCache().hits();
    auto r2 = blk.read(0, 8, pages[0]);
    engine.run();
    ASSERT_TRUE(r2->resolvedOk());
    EXPECT_GT(back.mapCache().hits(), hits_before);
}

TEST_F(DatapathTest, BackendMapCacheMatchesListLruReference)
{
    // Differential test: the flat, stamp-ordered cache against a plain
    // list LRU (front = most recent) over a seeded random gref stream.
    constexpr std::size_t cap = 8, nrefs = 24;
    sim::tuning().backendMapCacheCap = cap;
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    std::vector<Cstruct> pages;
    std::vector<xen::GrantRef> grefs;
    for (std::size_t i = 0; i < nrefs; i++) {
        pages.push_back(Cstruct::create(mirage::pageSize));
        grefs.push_back(
            uk.grantTable().grantAccess(dom0.id(), pages.back(), false));
    }
    xen::GrantMapCache cache(dom0, "difftest");
    cache.bind(&uk);

    std::list<std::size_t> lru;
    u64 hits = 0, misses = 0, evictions = 0;
    Rng rng(20);
    for (int step = 0; step < 4000; step++) {
        std::size_t k = rng.below(nrefs);
        std::optional<std::size_t> victim;
        if (auto it = std::find(lru.begin(), lru.end(), k);
            it != lru.end()) {
            lru.splice(lru.begin(), lru, it);
            hits++;
        } else {
            misses++;
            lru.push_front(k);
            if (lru.size() > cap) {
                victim = lru.back();
                lru.pop_back();
                evictions++;
            }
        }

        std::vector<u32> before(nrefs);
        for (std::size_t i = 0; i < nrefs; i++)
            before[i] = uk.grantTable().mapCountOf(grefs[i]);
        Cstruct *page = cache.map(grefs[k]);
        ASSERT_NE(page, nullptr) << "step " << step;
        EXPECT_EQ(page->buffer(), pages[k].buffer());
        ASSERT_EQ(cache.hits(), hits) << "step " << step;
        ASSERT_EQ(cache.misses(), misses) << "step " << step;
        ASSERT_EQ(cache.evictions(), evictions) << "step " << step;
        ASSERT_EQ(cache.size(), lru.size());
        // The victim is the one mapping whose count dropped to 0.
        std::optional<std::size_t> dropped;
        for (std::size_t i = 0; i < nrefs; i++)
            if (before[i] > 0 &&
                uk.grantTable().mapCountOf(grefs[i]) == 0) {
                ASSERT_FALSE(dropped) << "two unmaps in step " << step;
                dropped = i;
            }
        ASSERT_EQ(dropped, victim) << "step " << step;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(evictions, 0u);

    cache.unmapAll();
    EXPECT_EQ(cache.size(), 0u);
    for (xen::GrantRef g : grefs) {
        EXPECT_EQ(uk.grantTable().mapCountOf(g), 0u);
        EXPECT_TRUE(uk.grantTable().endAccess(g).ok());
    }
}

// ---- Doorbell batching / polling --------------------------------------------

TEST_F(DatapathTest, PollingSendsFewerDoorbellsThanPerPushNotify)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});

    constexpr int burst = 64;

    // Baseline: every ring push rings its doorbell.
    sim::tuning().doorbellBatching = false;
    u64 before = notifications();
    for (int i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "x"));
    engine.run();
    u64 unbatched = notifications() - before;
    ASSERT_EQ(nif_b.rxDelivered(), u64(burst));

    // Batched: consumers park the producers' events and poll, so a
    // steady burst costs almost no notifies — and strictly fewer than
    // one per frame (the tentpole's notifies/packet < 1 criterion).
    sim::tuning().doorbellBatching = true;
    before = notifications();
    for (int i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "x"));
    engine.run();
    u64 batched = notifications() - before;
    ASSERT_EQ(nif_b.rxDelivered(), 2u * burst);

    EXPECT_LT(batched, u64(burst));
    EXPECT_LT(batched, unbatched);
}

TEST_F(DatapathTest, BlkBurstCompletesWithFewDoorbells)
{
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot(uk);
    xen::VirtualDisk disk(engine, "d0", 1u << 20);
    xen::Blkback back(dom0, disk);
    Blkif blk(boot, back);

    u64 before = notifications();
    std::vector<rt::PromisePtr> ps;
    std::vector<Cstruct> pages;
    for (u32 i = 0; i < xen::RingLayout::slotCount; i++) {
        Cstruct p = blk.allocPage().value();
        pages.push_back(p);
        ps.push_back(blk.read(u64(i) * 8, 8, p));
    }
    engine.run();
    for (auto &p : ps)
        ASSERT_TRUE(p->resolvedOk());
    // Unbatched, the burst would cost two notifies per request (one
    // per ring push each way); parked events cut that far down.
    EXPECT_LT(notifications() - before,
              u64(xen::RingLayout::slotCount));
}

// ---- Ring event suppression across wraparound -------------------------------

TEST_F(DatapathTest, EventSuppressionSurvivesCounterWraparound)
{
    // Start both ends 16 slots before the u32 counters wrap, so every
    // park/re-arm below crosses 0xffffffff.
    Cstruct page = Cstruct::create(xen::RingLayout::pageBytes());
    xen::SharedRing shared(page);
    shared.init();
    const u32 base = 0xfffffff0u;
    shared.setReqProd(base);
    shared.setRspProd(base);
    shared.setReqEvent(base + 1);
    shared.setRspEvent(base + 1);
    xen::FrontRing front(page);
    xen::BackRing back(page);
    front.resume();
    back.resume();

    // Armed consumer: publishing across the wrap still asks to notify.
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(front.startRequest().ok());
    EXPECT_TRUE(front.pushRequests());

    // Backend drains past the wrap, parks req_event, and responds (the
    // responses free the frontend's flow-control window).
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(back.takeRequest().ok());
    back.suppressRequestEvents();
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(back.startResponse().ok());
    EXPECT_TRUE(back.pushResponses()) << "rsp_event was still armed";
    for (u32 i = 0; i < 16; i++)
        ASSERT_TRUE(front.takeResponse().ok());

    // Requests racing in against the parked event must not ask for a
    // doorbell...
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(front.startRequest().ok());
    EXPECT_FALSE(front.pushRequests())
        << "parked req_event must suppress the notify across the wrap";
    // ... but the re-arm still sees them (the poller's idle exit).
    EXPECT_TRUE(back.finalCheckForRequests());
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(back.takeRequest().ok());
    EXPECT_FALSE(back.finalCheckForRequests());

    // Same dance on the response side: the frontend parks rsp_event,
    // the backend's pushes go silent, the final check re-arms.
    front.suppressResponseEvents();
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(back.startResponse().ok());
    EXPECT_FALSE(back.pushResponses())
        << "parked rsp_event must suppress the notify across the wrap";
    EXPECT_TRUE(front.finalCheckForResponses());
    for (u32 i = 0; i < 8; i++)
        ASSERT_TRUE(front.takeResponse().ok());
    EXPECT_FALSE(front.finalCheckForResponses());

    // Once re-armed, the next publish notifies again.
    ASSERT_TRUE(front.startRequest().ok());
    EXPECT_TRUE(front.pushRequests());
}

// ---- Rx stall accounting ----------------------------------------------------

TEST_F(DatapathTest, RxStallCountedAndRecoversOnRecycle)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da);
    // A small receive-side page pool: holding delivered frames starves
    // the rx repost path.
    pvboot::LayoutSpec small;
    small.ioPages = 48;
    pvboot::PVBoot boot_b(db, small);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    std::vector<Cstruct> held;
    nif_b.onFrame([&](Cstruct f) { held.push_back(f); });

    constexpr u64 burst = 80; // more frames than receive-side pages
    for (u64 i = 0; i < burst; i++)
        nif_a.writeFrame(frameTo(nif_b, nif_a, "stall"));
    engine.run();
    EXPECT_GE(nif_b.rxStalls(), 1u)
        << "running out of rx pages must be counted as a stall";
    EXPECT_LT(nif_b.rxDelivered(), burst);

    // Dropping the held views recycles pages; the recycle listener
    // restocks the ring and the backlogged frames drain — no frame was
    // lost to the stall.
    for (int round = 0; round < 16 && nif_b.rxDelivered() < burst;
         round++) {
        held.clear();
        engine.run();
    }
    EXPECT_EQ(nif_b.rxDelivered(), burst);
}

// ---- Tx chain abort ---------------------------------------------------------

TEST_F(DatapathTest, TxChainAbortFailsWholePacketAndRecovers)
{
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});
    xen::Netback::Vif *vif = netback.vifFor(da);
    ASSERT_NE(vif, nullptr);

    // A three-fragment packet whose first fragment map fails: the whole
    // chain must error out, not deliver a truncated packet.
    Cstruct header = frameTo(nif_b, nif_a, "hdr");
    Cstruct pay1 = nif_a.allocTxPage().value().sub(0, 100);
    Cstruct pay2 = nif_a.allocTxPage().value().sub(0, 200);
    vif->injectTxMapFailures(1);
    auto p = nif_a.writeFrameV({header, pay1, pay2});
    engine.run();
    EXPECT_TRUE(p->cancelled());
    EXPECT_EQ(nif_a.txErrors(), 1u);
    EXPECT_EQ(nif_b.rxDelivered(), 0u);

    // The rings and pools recover: the next packet flows normally.
    auto q = nif_a.writeFrame(frameTo(nif_b, nif_a, "after"));
    engine.run();
    EXPECT_TRUE(q->resolvedOk());
    EXPECT_EQ(nif_b.rxDelivered(), 1u);
}

TEST_F(DatapathTest, OversizedTxChainAbortsAndReleasesEveryLease)
{
    check::Checker ck{check::Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_b.onFrame([](Cstruct) {});

    std::size_t free_before = nif_a.grantPool().freePages();
    {
        // 33 fragment views of one pooled page: one slot longer than
        // the ring can ever hold, so writeFrameV must fail the chain
        // up front — and hand the page lease back.
        Cstruct page = nif_a.allocTxPage().value();
        std::vector<Cstruct> frags;
        for (std::size_t i = 0; i <= xen::RingLayout::slotCount; i++)
            frags.push_back(page.sub(i * 4, 4));
        auto p = nif_a.writeFrameV(frags);
        EXPECT_TRUE(p->cancelled());
        EXPECT_GE(nif_a.txErrors(), 1u);
    }
    // Our views are gone; the checker's deferred
    // tx.abort_leaked_lease audit runs inside engine.run() and must
    // stay silent, with the aborted page back on the pool free list
    // (it was allocated fresh, so the free count grows by one).
    engine.run();
    EXPECT_EQ(ck.violations(check::Subsystem::Net), 0u) << ck.report();
    EXPECT_EQ(nif_a.grantPool().freePages(), free_before + 1);

    // The interface is still healthy afterwards.
    auto q = nif_a.writeFrame(frameTo(nif_b, nif_a, "after"));
    engine.run();
    EXPECT_TRUE(q->resolvedOk());
    EXPECT_EQ(nif_b.rxDelivered(), 1u);
    engine.setChecker(nullptr);
}

// ---- Hostile backend ---------------------------------------------------------

TEST_F(DatapathTest, NetifIgnoresResponsesNamingIdsNotInFlight)
{
    // dom0 turns hostile: the real vif lets go of the rings and the
    // test answers them itself, naming ids the frontend never issued,
    // ids already completed and ids past the ring, and finally
    // answering more requests than were sent. Each must be ignored: no
    // promise settles twice, no lease is lost or released twice, and a
    // response past the requests in flight is refused by the ring.
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    // Fewer I/O pages than rx slots: the rx ring stays partly unposted,
    // so some rx ids are never issued either.
    pvboot::LayoutSpec small;
    small.ioPages = 20;
    pvboot::PVBoot boot(da, small);
    Netif nif(boot, netback, mac(1));
    u64 frames = 0;
    nif.onFrame([&](Cstruct) { frames++; });
    netback.vifFor(da)->disconnect();
    engine.run();

    // The guest grants its tx ring page, then its rx ring page, before
    // anything else; the rx ring is the one with buffers posted.
    std::optional<xen::BackRing> tx, rx;
    Cstruct tx_page;
    for (xen::GrantRef ref : {1u, 2u}) {
        auto page = hv.grantMap(dom0, da, ref, true);
        ASSERT_TRUE(page.ok());
        ASSERT_EQ(page.value().length(), xen::RingLayout::pageBytes());
        bool is_tx = xen::SharedRing(page.value()).reqProd() == 0;
        (is_tx ? tx : rx).emplace(page.value());
        if (is_tx)
            tx_page = page.value();
    }
    ASSERT_TRUE(tx && rx);
    // This bare guest's only bound ports are the netif's two, and
    // either one drains both rings.
    auto doorbell = [&] {
        for (xen::Port p = 0; p < 4; p++)
            da.deliverEvent(p);
        engine.run();
    };
    auto respond = [](xen::BackRing &ring, u16 id, bool is_rx) {
        CstructView r = ring.startResponse().value();
        r.setLe16(is_rx ? xen::NetifWire::rxrspId : xen::NetifWire::txrspId,
                  id);
        r.setU8(is_rx ? xen::NetifWire::rxrspStatus
                      : xen::NetifWire::txrspStatus,
                xen::NetifWire::statusOk);
        if (is_rx) {
            r.setLe16(xen::NetifWire::rxrspLen, 60);
            r.setLe32(xen::NetifWire::rxrspFlow, 0);
        }
    };

    // ---- rx: every pooled page is either posted or free.
    std::set<u16> rx_ids;
    while (rx->unconsumedRequests() > 0)
        rx_ids.insert(
            rx->takeRequest().value().getLe16(xen::NetifWire::rxreqId));
    ASSERT_GT(rx_ids.size(), 0u);
    ASSERT_LT(rx_ids.size(), std::size_t(xen::RingLayout::slotCount));
    GrantPool &pool = nif.grantPool();
    EXPECT_EQ(pool.freePages() + rx_ids.size(), pool.pooledPages());
    u16 never_rx = 0;
    while (rx_ids.count(never_rx))
        never_rx++;
    ASSERT_LT(never_rx, xen::RingLayout::slotCount);
    u16 r0 = *rx_ids.begin(), r1 = *std::next(rx_ids.begin());
    for (u16 id : {never_rx, u16(32), u16(0xffff), r0, r0, r1, r1})
        respond(*rx, id, true);
    rx->pushResponses();
    doorbell();
    EXPECT_EQ(frames, 2u) << "only the two posted buffers deliver";
    EXPECT_EQ(nif.rxDelivered(), 2u);
    // The two filled buffers were reposted from the pool.
    std::size_t reposted = 0;
    while (rx->unconsumedRequests() > 0) {
        rx->takeRequest();
        reposted++;
    }
    EXPECT_EQ(reposted, 2u);
    EXPECT_EQ(pool.freePages() + rx_ids.size(), pool.pooledPages());

    // ---- tx: seven frames in flight, answered by seven responses.
    int settled = 0;
    auto send = [&] {
        Cstruct page = Cstruct::create(mirage::pageSize);
        auto p = nif.writeFrame(page.sub(0, 60));
        p->onComplete([&](rt::Promise &) { settled++; });
        return p;
    };
    std::vector<rt::PromisePtr> sent;
    for (int i = 0; i < 7; i++)
        sent.push_back(send());
    std::vector<u16> tx_ids;
    while (tx->unconsumedRequests() > 0)
        tx_ids.push_back(
            tx->takeRequest().value().getLe16(xen::NetifWire::txreqId));
    ASSERT_EQ(tx_ids.size(), 7u);
    u16 never_tx = 0;
    while (std::count(tx_ids.begin(), tx_ids.end(), never_tx))
        never_tx++;
    for (u16 id : {never_tx, u16(32), u16(0xffff)})
        respond(*tx, id, false);
    tx->pushResponses();
    doorbell();
    EXPECT_EQ(settled, 0) << "no response named a frame in flight";

    respond(*tx, tx_ids[0], false);
    respond(*tx, tx_ids[0], false); // completed a moment ago
    tx->pushResponses();
    doorbell();
    EXPECT_TRUE(sent[0]->resolvedOk());
    EXPECT_FALSE(sent[1]->resolvedOk() || sent[1]->cancelled());
    EXPECT_EQ(settled, 1);

    respond(*tx, tx_ids[1], false);
    respond(*tx, tx_ids[0], false); // completed earlier
    tx->pushResponses();
    doorbell();
    EXPECT_TRUE(sent[1]->resolvedOk());
    EXPECT_EQ(settled, 2) << "each frame settles exactly once";

    // Every request is answered; a response past them answers nothing
    // and the ring refuses it, even one naming a frame in flight.
    xen::SharedRing shared_tx(tx_page);
    u32 answered = shared_tx.rspProd();
    shared_tx.slot(answered).setLe16(xen::NetifWire::txrspId, tx_ids[2]);
    shared_tx.slot(answered).setU8(xen::NetifWire::txrspStatus,
                                   xen::NetifWire::statusOk);
    shared_tx.setRspProd(answered + 1);
    doorbell();
    EXPECT_FALSE(sent[2]->resolvedOk() || sent[2]->cancelled());
    EXPECT_EQ(settled, 2);
    EXPECT_EQ(nif.txCompleted(), 2u);
    EXPECT_EQ(nif.txErrors(), 0u);
    EXPECT_EQ(pool.freePages() + rx_ids.size(), pool.pooledPages());

    EXPECT_TRUE(hv.grantUnmap(dom0, da, 1).ok());
    EXPECT_TRUE(hv.grantUnmap(dom0, da, 2).ok());
}

// ---- Hostile frontend --------------------------------------------------------

TEST_F(DatapathTest, NetbackRefusesARunawayFrontend)
{
    // Guest a publishes a tx producer index far past its ring. dom0
    // takes nothing from it — no slot read, no grant mapped — counts
    // the runaway index once, and carries on serving b and c.
    check::Checker ck{check::Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    xen::Domain &dc = hv.createDomain("c", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db), boot_c(dc);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    Netif nif_c(boot_c, netback, mac(3));
    u64 to_b = 0, to_c = 0;
    nif_a.onFrame([](Cstruct) {});
    nif_b.onFrame([&](Cstruct) { to_b++; });
    nif_c.onFrame([&](Cstruct) { to_c++; });
    engine.run();
    ASSERT_EQ(ck.violations(), 0u) << ck.report();

    // a's tx ring page is its first grant.
    auto page = hv.grantMap(dom0, da, 1, true);
    ASSERT_TRUE(page.ok());
    xen::SharedRing tx(page.value());
    auto first = nif_a.writeFrame(frameTo(nif_b, nif_a, "first"));
    tx.setReqProd(tx.reqProd() + 0x40000000u); // after a's own push
    auto b_to_c = nif_b.writeFrame(frameTo(nif_c, nif_b, "to c"));
    engine.run();
    EXPECT_TRUE(first->pending()) << "a runaway tx ring must not be read";
    EXPECT_EQ(to_b, 0u);
    EXPECT_TRUE(b_to_c->resolvedOk()) << "other guests keep their service";
    EXPECT_EQ(to_c, 1u);
    EXPECT_EQ(ck.violations(check::Subsystem::Ring), 1u) << ck.report();
    EXPECT_NE(ck.lastViolation().find("req_prod_overrun"), std::string::npos)
        << ck.lastViolation();

    // a's next push publishes a sane index again (the checker sees it
    // replace a forged one: tampered, and backwards) and both of its
    // frames go out.
    auto second = nif_a.writeFrame(frameTo(nif_b, nif_a, "second"));
    engine.run();
    EXPECT_TRUE(first->resolvedOk());
    EXPECT_TRUE(second->resolvedOk());
    EXPECT_EQ(to_b, 2u);
    EXPECT_EQ(ck.violations(check::Subsystem::Ring), 3u) << ck.report();
    EXPECT_EQ(ck.violations(check::Subsystem::Grant), 0u) << ck.report();

    EXPECT_TRUE(hv.grantUnmap(dom0, da, 1).ok());
    engine.setChecker(nullptr);
}

// ---- Poll trains: what crediting an idle poll relies on ----------------------

TEST_F(DatapathTest, DrainWithNothingReadyIsANoOp)
{
    // The engine credits a poll instead of running it when the owner's
    // readiness test says no (sim::Engine::poll). That is exact only if
    // such a drain consumes nothing, schedules nothing and writes only
    // values already in place. Drive netif, netback and blkif traffic —
    // tx bursts deeper than the ring, so frames wait in netif's queue,
    // and a block burst deeper than the ring — and force a drain at
    // every point where an active poller's owner is not ready.
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    xen::Domain &uk = hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db), boot_uk(uk);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_a.onFrame([](Cstruct) {});
    nif_b.onFrame([](Cstruct) {});
    xen::VirtualDisk disk(engine, "d0", 1u << 20);
    xen::Blkback back(dom0, disk);
    Blkif blk(boot_uk, back);
    engine.run();

    // Each netif grants its tx then its rx ring page first; the blkif
    // grants its ring page first.
    std::vector<std::pair<xen::Domain *, xen::GrantRef>> grants = {
        {&da, 1}, {&da, 2}, {&db, 1}, {&db, 2}, {&uk, 1}};
    std::vector<Cstruct> rings;
    for (auto [dom, ref] : grants)
        rings.push_back(hv.grantMap(dom0, *dom, ref, true).value());
    auto state = [&] {
        std::vector<u32> words;
        for (const Cstruct &page : rings) {
            xen::SharedRing r(page);
            for (u32 w : {r.reqProd(), r.reqEvent(), r.rspProd(),
                          r.rspEvent()})
                words.push_back(w);
        }
        return std::make_tuple(words, telemetry.metrics.dump(),
                               engine.pendingEvents(),
                               nif_a.txQueueDepth(), nif_b.txQueueDepth());
    };
    std::map<std::string, u64> forced;
    auto probe = [&](const std::string &who, sim::Poller &p) {
        if (!p.active() || p.ready())
            return;
        auto before = state();
        EXPECT_FALSE(p.drainNow()) << who;
        ASSERT_EQ(state(), before)
            << who << " drain changed state at " << engine.now().ns();
        forced[who]++;
    };
    auto drive = [&] {
        while (engine.step()) {
            probe("netif a", nif_a.poller());
            probe("netif b", nif_b.poller());
            probe("vif a", netback.vifFor(da)->txPoller());
            probe("vif b", netback.vifFor(db)->txPoller());
            probe("blkif", blk.poller());
            if (HasFatalFailure())
                return;
        }
    };

    std::vector<rt::PromisePtr> ps;
    for (int round = 0; round < 2; round++) {
        for (int i = 0; i < 80; i++)
            ps.push_back(nif_a.writeFrame(frameTo(nif_b, nif_a, "to b")));
        for (int i = 0; i < 40; i++)
            ps.push_back(nif_b.writeFrame(frameTo(nif_a, nif_b, "to a")));
        for (u32 i = 0; i < 2 * xen::RingLayout::slotCount; i++)
            ps.push_back(blk.read(u64(i) * 8, 8, blk.allocPage().value()));
        drive();
        if (HasFatalFailure())
            return;
    }
    for (const auto &p : ps)
        EXPECT_TRUE(p->resolvedOk());
    for (const char *who : {"netif a", "netif b", "vif a", "vif b", "blkif"})
        EXPECT_GT(forced[who], 0u) << who << " never idle while polling";

    for (auto [dom, ref] : grants)
        EXPECT_TRUE(hv.grantUnmap(dom0, *dom, ref).ok());
}

/** Keys of a JSON object's top-level fields, in order (flat objects). */
static std::vector<std::string>
jsonKeys(const std::string &obj)
{
    std::vector<std::string> keys;
    std::size_t at = 0;
    while ((at = obj.find('"', at)) != std::string::npos) {
        std::size_t end = obj.find('"', at + 1);
        keys.push_back(obj.substr(at + 1, end - at - 1));
        at = obj.find_first_of(",}", end);
    }
    return keys;
}

TEST_F(DatapathTest, IdlePollTrainsKeepTheProfilerScopeOrder)
{
    // A doorbell drains under the upcall's scope; the root children
    // "net/netif" and "hyp/netback/tx" are made only by a poll's drain,
    // which runs under the root. Each train here starts on a doorbell
    // its owner has just drained, so its first polls find nothing. A
    // credited poll must create its root child at that same point, or a
    // later root child (the marker, charged mid-train) changes the key
    // order of the trace's `prof.cpu_ns` samples.
    telemetry.tracer.enable();
    telemetry.profiler.enable();
    telemetry.profiler.setSampleInterval(Duration::micros(1));
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));
    nif_a.onFrame([](Cstruct) {});
    nif_b.onFrame([](Cstruct) {});
    engine.run();
    ASSERT_TRUE(nif_a.writeFrame(frameTo(nif_b, nif_a, "ping")));
    engine.after(Duration::micros(30), [&da] {
        da.vcpu().charge(Duration::nanos(100), "test.marker");
    });
    engine.run();

    std::string last;
    for (const auto &ev : telemetry.tracer.events())
        if (std::string(ev.name) == "prof.cpu_ns")
            last = ev.args;
    EXPECT_EQ(jsonKeys(last), (std::vector<std::string>{
                  "hypercall", "grant.map", "grant.issue", "grant.reuse",
                  "hyp/evtchn", "hyp/netback/tx", "net/netif",
                  "test.marker"}))
        << last;
}

// ---- Flow tracing across backend segmentation -------------------------------

TEST_F(DatapathTest, FlowRidesEveryDerivedTsoSegment)
{
    trace::FlowTracker &fl = telemetry.flows;
    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    pvboot::PVBoot boot_a(da), boot_b(db);
    Netif nif_a(boot_a, netback, mac(1));
    Netif nif_b(boot_b, netback, mac(2));

    std::vector<u64> seen;
    nif_b.onFrame([&](Cstruct) { seen.push_back(fl.current()); });

    // Hand-build an eth+IPv4+TCP header so netback can segment: a
    // 6-MSS payload with gso = MSS must leave the backend as derived
    // frames of 2 MSS each (((pageSize - 54) / mss) * mss = 2920).
    constexpr std::size_t eth_hdr = 14, ip_hdr = 20, tcp_hdr = 20;
    constexpr std::size_t hdr_len = eth_hdr + ip_hdr + tcp_hdr;
    constexpr u16 mss = 1460;
    constexpr std::size_t payload = 6 * mss;
    Cstruct hdr = nif_a.allocTxPage().value().sub(0, hdr_len);
    for (int i = 0; i < 6; i++) {
        hdr.setU8(std::size_t(i), nif_b.mac()[std::size_t(i)]);
        hdr.setU8(std::size_t(6 + i), nif_a.mac()[std::size_t(i)]);
    }
    hdr.setBe16(12, 0x0800);
    hdr.setU8(eth_hdr, 0x45); // IPv4, ihl = 5
    hdr.setBe16(eth_hdr + 2, u16(ip_hdr + tcp_hdr + payload));
    hdr.setU8(eth_hdr + 9, 6);                // TCP
    hdr.setU8(eth_hdr + ip_hdr + 12, 0x50);   // data offset 5 words
    std::vector<Cstruct> frags{hdr};
    for (std::size_t left = payload; left > 0;) {
        Cstruct pg = nif_a.allocTxPage().value();
        std::size_t take = std::min(left, pg.length());
        frags.push_back(pg.sub(0, take));
        left -= take;
    }

    TxOffload off;
    off.gsoSize = mss;
    off.csumBlank = true;
    trace::FlowId flow = fl.begin("tso", engine.now());
    auto p = nif_a.writeFrameV(frags, off);
    fl.end(flow, engine.now());
    fl.setCurrent(0);
    engine.run();
    EXPECT_TRUE(p->resolvedOk());

    // Every derived segment must arrive under the chain's flow.
    ASSERT_EQ(seen.size(), 3u);
    for (u64 f : seen)
        EXPECT_EQ(f, flow);

    // The completed flow records one netback_tx stage for the chain.
    bool found = false;
    for (const trace::FlowTracker::Flow &f : fl.recent())
        if (f.id == flow)
            for (const trace::FlowTracker::Stage &s : f.stages)
                if (s.name == "netback_tx") {
                    found = true;
                    EXPECT_EQ(s.count, 1u);
                }
    EXPECT_TRUE(found) << "flow never crossed the netback_tx stage";
}

// ---- Checker-audited teardown -----------------------------------------------

TEST(CheckedDatapathTest, TeardownWithLivePersistentGrantsIsClean)
{
    // Drive net and block traffic so persistent grants and backend map
    // caches are live, then tear the guests down: the LIFO shutdown
    // ordering (backend unmaps cached grants before the pool revokes
    // them) must keep the checker's audits silent.
    sim::Engine engine;
    check::Checker ck{check::Checker::Mode::Count};
    engine.setChecker(&ck);
    ck.enable();
    xen::Hypervisor hv{engine};
    xen::Bridge bridge(engine, "br0");
    xen::Domain &dom0 =
        hv.createDomain("dom0", xen::GuestKind::LinuxMinimal, 512);
    xen::Netback netback(dom0, bridge);

    xen::Domain &da = hv.createDomain("a", xen::GuestKind::Unikernel, 64);
    xen::Domain &db = hv.createDomain("b", xen::GuestKind::Unikernel, 64);
    xen::Domain &dc = hv.createDomain("c", xen::GuestKind::Unikernel, 64);
    auto boot_a = std::make_unique<pvboot::PVBoot>(da);
    auto boot_b = std::make_unique<pvboot::PVBoot>(db);
    auto boot_c = std::make_unique<pvboot::PVBoot>(dc);
    auto nif_a = std::make_unique<Netif>(*boot_a, netback,
                                         xen::MacBytes{0, 0x16, 0x3e, 0,
                                                       0, 1});
    auto nif_b = std::make_unique<Netif>(*boot_b, netback,
                                         xen::MacBytes{0, 0x16, 0x3e, 0,
                                                       0, 2});
    xen::VirtualDisk disk(engine, "d0", 4096);
    xen::Blkback blkback(dom0, disk);
    auto blk = std::make_unique<Blkif>(*boot_c, blkback);

    nif_b->onFrame([](Cstruct) {});
    for (int i = 0; i < 16; i++) {
        Cstruct page = nif_a->allocTxPage().value();
        Cstruct f = page.sub(0, 20);
        for (int j = 0; j < 6; j++) {
            f.setU8(std::size_t(j), nif_b->mac()[std::size_t(j)]);
            f.setU8(std::size_t(6 + j), nif_a->mac()[std::size_t(j)]);
        }
        nif_a->writeFrame(f);
    }
    Cstruct bpage = blk->allocPage().value();
    blk->write(64, 8, bpage);
    blk->read(64, 8, bpage);
    engine.run();
    ASSERT_EQ(ck.violations(), 0u) << ck.report();
    ASSERT_GT(nif_a->grantPool().issued(), 0u);
    ASSERT_GT(blk->grantPool().issued(), 0u);

    // Persistent grants are still granted and mapped right now.
    da.shutdown();
    db.shutdown();
    dc.shutdown();
    EXPECT_EQ(ck.violations(), 0u) << ck.report();

    // Driver objects outlive their domains; destruction stays clean.
    nif_a.reset();
    nif_b.reset();
    blk.reset();
    boot_a.reset();
    boot_b.reset();
    boot_c.reset();
    EXPECT_EQ(ck.violations(), 0u) << ck.report();
}

} // namespace
} // namespace mirage::drivers
