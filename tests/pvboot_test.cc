/**
 * @file
 * Tests for PVBoot: the Fig 2 address-space layout, slab and extent
 * allocators, I/O page pool recycling (Fig 4) and the heap-growth
 * backend models.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "pvboot/extent.h"
#include "pvboot/pvboot.h"
#include "sim/cost_model.h"

namespace mirage::pvboot {
namespace {

class PvbootTest : public ::testing::Test
{
  protected:
    sim::Engine engine;
    xen::Hypervisor hv{engine};
};

// ---- Layout ----------------------------------------------------------------

TEST_F(PvbootTest, LayoutMatchesFig2)
{
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 128);
    PVBoot boot(d);
    auto &pt = d.pageTables();

    // Null guard traps.
    const auto *null_page = pt.lookup(LayoutMap::nullGuardVpn);
    ASSERT_NE(null_page, nullptr);
    EXPECT_FALSE(null_page->perms.read);

    // Text is executable, not writable; data is the reverse.
    EXPECT_TRUE(pt.canExecute(LayoutMap::textVpn));
    EXPECT_FALSE(pt.canWrite(LayoutMap::textVpn));
    LayoutSpec spec;
    u64 data_vpn = LayoutMap::textVpn + spec.textPages;
    EXPECT_TRUE(pt.canWrite(data_vpn));
    EXPECT_FALSE(pt.canExecute(data_vpn));

    // I/O region and minor heap are writable, never executable.
    EXPECT_TRUE(pt.canWrite(LayoutMap::ioVpn));
    EXPECT_FALSE(pt.canExecute(LayoutMap::ioVpn));
    EXPECT_TRUE(pt.canWrite(LayoutMap::minorHeapVpn));

    // Guard page between data and stack.
    const auto *guard = pt.lookup(data_vpn + spec.dataPages);
    ASSERT_NE(guard, nullptr);
    EXPECT_EQ(guard->role, xen::PageRole::Guard);
}

TEST_F(PvbootTest, LayoutSealsCleanly)
{
    // No page in the standard layout is W+X, so sealing must succeed:
    // the unikernel's start-of-day promise (§2.3.3).
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    PVBoot boot(d);
    EXPECT_TRUE(boot.seal().ok());
}

TEST_F(PvbootTest, LayoutCountsPtUpdates)
{
    xen::Domain &d =
        hv.createDomain("uk", xen::GuestKind::Unikernel, 64);
    PVBoot boot(d);
    // The full layout is tracked update-by-update (the CPU cost is
    // modelled by the toolstack's guest-init figure, not re-charged).
    EXPECT_GT(boot.layoutUpdates(), 4096u) << "I/O region + heaps";
    EXPECT_EQ(boot.layoutUpdates(), d.pageTables().updatesApplied());
}

// ---- Slab allocator ----------------------------------------------------------

TEST(PageTablesTest, MapProtectUnmapSealAcrossLeavesAndSparseRegions)
{
    using xen::PagePerms;
    using xen::PageRole;
    static_assert(sizeof(PageRole) == 1);
    xen::PageTables pt;
    // Both sides of a 512-page leaf boundary, then the edges of the
    // sparse Fig 2 regions, which land in leaves far apart.
    const u64 vpns[] = {0,
                        511,
                        512,
                        513,
                        LayoutMap::textVpn,
                        LayoutMap::ioVpn - 1,
                        LayoutMap::ioVpn,
                        LayoutMap::minorHeapVpn,
                        LayoutMap::majorHeapVpn,
                        LayoutMap::xenReservedVpn - 1};
    for (u64 v : vpns)
        ASSERT_TRUE(pt.map(v, PagePerms::rw(), PageRole::Heap).ok()) << v;
    EXPECT_EQ(pt.mappedPages(), std::size(vpns));
    for (u64 v : vpns) {
        const auto *e = pt.lookup(v);
        ASSERT_NE(e, nullptr) << v;
        EXPECT_EQ(e->role, PageRole::Heap);
        EXPECT_TRUE(pt.canWrite(v));
        EXPECT_FALSE(pt.canExecute(v));
    }
    for (u64 v : {u64(510), u64(514), LayoutMap::ioVpn + 1,
                  LayoutMap::majorHeapVpn - 1, LayoutMap::xenReservedVpn})
        EXPECT_EQ(pt.lookup(v), nullptr) << v;

    EXPECT_FALSE(pt.map(512, PagePerms::rx(), PageRole::Text).ok());
    EXPECT_EQ(pt.mappedPages(), std::size(vpns));

    // protect changes one entry, not its leaf neighbour.
    ASSERT_TRUE(pt.protect(512, PagePerms::rx()).ok());
    EXPECT_TRUE(pt.canExecute(512));
    EXPECT_FALSE(pt.canWrite(512));
    EXPECT_TRUE(pt.canWrite(511));
    EXPECT_FALSE(pt.protect(514, PagePerms::ro()).ok());

    // Emptying a leaf and refilling it.
    ASSERT_TRUE(pt.unmap(0).ok());
    ASSERT_TRUE(pt.unmap(511).ok());
    ASSERT_TRUE(pt.unmap(LayoutMap::textVpn).ok());
    EXPECT_FALSE(pt.unmap(511).ok());
    EXPECT_EQ(pt.lookup(511), nullptr);
    EXPECT_NE(pt.lookup(512), nullptr);
    ASSERT_TRUE(pt.map(511, PagePerms::ro(), PageRole::Data).ok());
    EXPECT_EQ(pt.lookup(511)->role, PageRole::Data);
    EXPECT_EQ(pt.mappedPages(), std::size(vpns) - 2);

    // The seal names the lowest W^X page, whichever leaf holds it.
    ASSERT_TRUE(pt.protect(LayoutMap::majorHeapVpn, PagePerms::rwx()).ok());
    ASSERT_TRUE(pt.protect(513, PagePerms::rwx()).ok());
    Status st = pt.seal();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("vpn 513 "), std::string::npos)
        << st.error().message;
    ASSERT_TRUE(pt.protect(513, PagePerms::rw()).ok());
    st = pt.seal();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find(
                  "vpn " + std::to_string(LayoutMap::majorHeapVpn) + " "),
              std::string::npos)
        << st.error().message;
    ASSERT_TRUE(pt.protect(LayoutMap::majorHeapVpn, PagePerms::rw()).ok());
    ASSERT_TRUE(pt.seal().ok());

    // Sealed: fresh non-executable I/O pages only, in a new leaf too.
    u64 refused = pt.updatesRefused();
    EXPECT_TRUE(pt.map(LayoutMap::ioVpn + 4096, PagePerms::rw(),
                       PageRole::IoPage)
                    .ok());
    EXPECT_FALSE(
        pt.map(LayoutMap::ioVpn, PagePerms::rw(), PageRole::IoPage).ok());
    EXPECT_FALSE(pt.map(LayoutMap::ioVpn + 1, PagePerms::rx(),
                        PageRole::IoPage)
                     .ok());
    EXPECT_FALSE(pt.unmap(512).ok());
    EXPECT_FALSE(pt.protect(512, PagePerms::rw()).ok());
    EXPECT_EQ(pt.updatesRefused(), refused + 4);
    EXPECT_EQ(pt.mappedPages(), std::size(vpns) - 1);
}

TEST(SlabTest, AllocFreeReuse)
{
    SlabAllocator slab(4);
    void *a = slab.alloc(100); // rounds to 128
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(slab.bytesAllocated(), 128u);
    slab.free(a, 100);
    EXPECT_EQ(slab.bytesAllocated(), 0u);
    void *b = slab.alloc(100);
    EXPECT_EQ(a, b) << "freed object must be reused";
}

TEST(SlabTest, DistinctObjectsDoNotOverlap)
{
    SlabAllocator slab(4);
    std::set<void *> seen;
    for (int i = 0; i < 50; i++) {
        void *p = slab.alloc(64);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
    }
}

TEST(SlabTest, CapacityBounded)
{
    SlabAllocator slab(1); // one 4 kB page: 2 objects of 2048
    EXPECT_NE(slab.alloc(2048), nullptr);
    EXPECT_NE(slab.alloc(2048), nullptr);
    EXPECT_EQ(slab.alloc(2048), nullptr) << "capacity must bound slabs";
    EXPECT_EQ(slab.pagesInUse(), 1u);
}

TEST(SlabTest, RejectsOversizeAndZero)
{
    SlabAllocator slab(4);
    EXPECT_EQ(slab.alloc(0), nullptr);
    EXPECT_EQ(slab.alloc(4096), nullptr) << "above maxObject";
}

TEST(SlabTest, SizeClassSweep)
{
    SlabAllocator slab(64);
    for (std::size_t size = 1; size <= 2048; size += 37) {
        void *p = slab.alloc(size);
        ASSERT_NE(p, nullptr) << "size " << size;
        slab.free(p, size);
    }
    EXPECT_EQ(slab.bytesAllocated(), 0u);
}

// ---- Extent allocator ----------------------------------------------------------

TEST(ExtentTest, GrowsContiguously)
{
    ExtentAllocator ext(1000, 4);
    u64 prev = 0;
    for (int i = 0; i < 4; i++) {
        auto vpn = ext.growSuperpage();
        ASSERT_TRUE(vpn.ok());
        if (i > 0)
            EXPECT_EQ(vpn.value(), prev + superpageSize / pageSize)
                << "extents must be contiguous";
        prev = vpn.value();
    }
    EXPECT_FALSE(ext.growSuperpage().ok()) << "reservation exhausted";
    EXPECT_EQ(ext.bytesUsed(), 4 * superpageSize);
    EXPECT_TRUE(ext.contains(1000));
    EXPECT_TRUE(ext.contains(1000 + 4 * 512 - 1));
    EXPECT_FALSE(ext.contains(1000 + 4 * 512));
}

// ---- Memory backends (Fig 7a configurations) -----------------------------------

TEST(MemoryBackendTest, GrowthCostOrdering)
{
    std::size_t bytes = 64 * superpageSize; // 128 MB growth
    Duration extent = MemoryBackend::xenExtent().growCost(bytes);
    Duration xmalloc = MemoryBackend::xenMalloc().growCost(bytes);
    Duration native = MemoryBackend::linuxNative().growCost(bytes);
    Duration pv = MemoryBackend::linuxPv().growCost(bytes);

    // Superpage mapping is the cheapest way to grow; PV faulting the
    // dearest. This ordering underpins Fig 7a.
    EXPECT_LT(extent.ns(), xmalloc.ns());
    EXPECT_LT(native.ns(), pv.ns());
    EXPECT_LT(extent.ns(), pv.ns());
}

TEST(MemoryBackendTest, ContiguityFlags)
{
    EXPECT_TRUE(MemoryBackend::xenExtent().contiguous());
    EXPECT_TRUE(MemoryBackend::xenMalloc().contiguous());
    EXPECT_FALSE(MemoryBackend::linuxNative().contiguous());
    EXPECT_FALSE(MemoryBackend::linuxPv().contiguous());
}

// ---- I/O page pool ----------------------------------------------------------------

TEST(IoPagePoolTest, PagesRecycleWhenViewsDrop)
{
    IoPagePool pool(4);
    {
        auto page = pool.allocPage();
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(pool.inUse(), 1u);
        // Sub-views keep the page alive (Fig 4).
        Cstruct view = page.value().sub(100, 200);
        Cstruct whole = page.value();
        page = exhaustedError("drop original"); // drop first handle
        EXPECT_EQ(pool.inUse(), 1u) << "views still reference the page";
        (void)view;
        (void)whole;
    }
    EXPECT_EQ(pool.inUse(), 0u) << "last view dropped -> page recycled";
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(IoPagePoolTest, ExhaustionIsReported)
{
    IoPagePool pool(2);
    auto a = pool.allocPage();
    auto b = pool.allocPage();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto c = pool.allocPage();
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error().kind, Error::Kind::Exhausted);
    EXPECT_EQ(pool.exhaustions(), 1u);
}

TEST(IoPagePoolTest, HighWaterTracksPeak)
{
    IoPagePool pool(8);
    {
        std::vector<Cstruct> pages;
        for (int i = 0; i < 5; i++)
            pages.push_back(pool.allocPage().value());
        EXPECT_EQ(pool.highWater(), 5u);
    }
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.highWater(), 5u);
    auto p = pool.allocPage();
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(pool.highWater(), 5u);
}

TEST(IoPagePoolTest, ReusePropertySweep)
{
    // Allocate/release churn never exceeds capacity and always recycles.
    IoPagePool pool(16);
    for (int round = 0; round < 100; round++) {
        std::vector<Cstruct> held;
        for (int i = 0; i < 16; i++)
            held.push_back(pool.allocPage().value());
        EXPECT_FALSE(pool.allocPage().ok());
        held.clear();
        EXPECT_EQ(pool.inUse(), 0u);
    }
    EXPECT_EQ(pool.allocations(), 1600u);
}

} // namespace
} // namespace mirage::pvboot
