/**
 * @file
 * Storage tests: block-range helpers, the KV log store with replay,
 * FAT-32 (format/mount/write/read-by-sector-iterator/delete), the
 * append-only COW B-tree (ordering, splits, crash-safe root), and the
 * memoizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "base/rand.h"
#include "storage/btree.h"
#include "storage/fat32.h"
#include "storage/kv.h"
#include "storage/memoize.h"

namespace mirage::storage {
namespace {

/** Run an async op to completion on a MemDevice (callbacks are
 *  immediate, so "async" completes synchronously). */
Status
must(std::function<void(std::function<void(Status)>)> op)
{
    Status out = Error(Error::Kind::Io, "callback never ran");
    bool ran = false;
    op([&](Status st) {
        out = st;
        ran = true;
    });
    EXPECT_TRUE(ran) << "operation did not complete synchronously";
    return out;
}

/** Forwards to an inner device until told to swallow: from then on
 *  every request drops its completion callback, modelling abandoned
 *  in-flight I/O (a detached backend). Continuation chains must unwind
 *  and free their captures when that happens — the lint's
 *  continuation-self-capture cycles are exactly what would leak. */
class SwallowDevice : public BlockDevice
{
  public:
    explicit SwallowDevice(BlockDevice &inner) : inner_(inner) {}

    u64 sizeSectors() const override { return inner_.sizeSectors(); }

    void
    read(u64 sector, u32 count, Cstruct buf,
         BlockCallback done) override
    {
        if (remaining_ == 0) {
            swallowed_++;
            return; // callback dropped, never completes
        }
        remaining_--;
        inner_.read(sector, count, buf, std::move(done));
    }

    void
    write(u64 sector, u32 count, Cstruct buf,
          BlockCallback done) override
    {
        if (remaining_ == 0) {
            swallowed_++;
            return;
        }
        remaining_--;
        inner_.write(sector, count, buf, std::move(done));
    }

    /** Allow @p n more operations, then start swallowing. */
    void swallowAfter(u64 n) { remaining_ = n; }

    u64 swallowed() const { return swallowed_; }

  private:
    BlockDevice &inner_;
    u64 remaining_ = ~0ULL;
    u64 swallowed_ = 0;
};

/** Forwards every request to an inner device but holds each write's
 *  completion until release(), so several writes are in flight at once,
 *  as on a ring-backed disk. */
class HoldDevice : public BlockDevice
{
  public:
    explicit HoldDevice(BlockDevice &inner) : inner_(inner) {}

    u64 sizeSectors() const override { return inner_.sizeSectors(); }

    void
    read(u64 sector, u32 count, Cstruct buf, BlockCallback done) override
    {
        inner_.read(sector, count, buf, std::move(done));
    }

    void
    write(u64 sector, u32 count, Cstruct buf, BlockCallback done) override
    {
        inner_.write(sector, count, buf,
                     [this, done = std::move(done)](Status st) {
                         held_.push_back([done, st] { done(st); });
                     });
    }

    /** Complete held writes, oldest first, until none is left (a
     *  completion may start more writes). */
    void
    release()
    {
        while (!held_.empty()) {
            auto next = std::move(held_.front());
            held_.pop_front();
            next();
        }
    }

  private:
    BlockDevice &inner_;
    std::deque<std::function<void()>> held_;
};

// ---- Block layer ----------------------------------------------------------------

TEST(BlockTest, RangeSplitsIntoPageRequests)
{
    MemDevice dev(1024);
    Cstruct big = Cstruct::create(40 * 512); // 5 page-sized requests
    for (std::size_t i = 0; i < big.length(); i++)
        big.setU8(i, u8(i % 131));
    ASSERT_TRUE(must([&](auto cb) { writeRange(dev, 8, 40, big, cb); })
                    .ok());
    EXPECT_EQ(dev.writesIssued(), 5u);
    Cstruct back = Cstruct::create(40 * 512);
    ASSERT_TRUE(
        must([&](auto cb) { readRange(dev, 8, 40, back, cb); }).ok());
    EXPECT_TRUE(back.contentEquals(big));
}

TEST(BlockTest, OutOfRangeRejected)
{
    MemDevice dev(16);
    Cstruct buf = Cstruct::create(4096);
    EXPECT_FALSE(
        must([&](auto cb) { writeRange(dev, 10, 8, buf, cb); }).ok());
}

// ---- KV store -------------------------------------------------------------------

TEST(KvTest, SetGetRemove)
{
    MemDevice dev(4096);
    KvStore kv(dev);
    ASSERT_TRUE(must([&](auto cb) { kv.format(cb); }).ok());
    ASSERT_TRUE(
        must([&](auto cb) { kv.set("alpha", "one", cb); }).ok());
    ASSERT_TRUE(
        must([&](auto cb) { kv.set("beta", "two", cb); }).ok());
    EXPECT_EQ(kv.get("alpha").value(), "one");
    EXPECT_EQ(kv.get("beta").value(), "two");
    EXPECT_FALSE(kv.get("gamma").ok());
    ASSERT_TRUE(must([&](auto cb) { kv.remove("alpha", cb); }).ok());
    EXPECT_FALSE(kv.get("alpha").ok());
    EXPECT_EQ(kv.keyCount(), 1u);
}

TEST(KvTest, OverwriteTakesLatestValue)
{
    MemDevice dev(4096);
    KvStore kv(dev);
    ASSERT_TRUE(must([&](auto cb) { kv.format(cb); }).ok());
    ASSERT_TRUE(must([&](auto cb) { kv.set("k", "v1", cb); }).ok());
    ASSERT_TRUE(must([&](auto cb) { kv.set("k", "v2", cb); }).ok());
    EXPECT_EQ(kv.get("k").value(), "v2");
    EXPECT_EQ(kv.keyCount(), 1u);
}

TEST(KvTest, MountReplaysLog)
{
    MemDevice dev(4096);
    {
        KvStore kv(dev);
        ASSERT_TRUE(must([&](auto cb) { kv.format(cb); }).ok());
        ASSERT_TRUE(
            must([&](auto cb) { kv.set("a", "1", cb); }).ok());
        ASSERT_TRUE(
            must([&](auto cb) { kv.set("b", "2", cb); }).ok());
        ASSERT_TRUE(
            must([&](auto cb) { kv.set("a", "3", cb); }).ok());
        ASSERT_TRUE(must([&](auto cb) { kv.remove("b", cb); }).ok());
    }
    // Fresh instance over the same device: replay must reconstruct.
    KvStore kv2(dev);
    ASSERT_TRUE(must([&](auto cb) { kv2.mount(cb); }).ok());
    EXPECT_EQ(kv2.get("a").value(), "3");
    EXPECT_FALSE(kv2.get("b").ok());
    EXPECT_EQ(kv2.keyCount(), 1u);
}

TEST(KvTest, ManyKeysAcrossSectors)
{
    MemDevice dev(16384);
    KvStore kv(dev);
    ASSERT_TRUE(must([&](auto cb) { kv.format(cb); }).ok());
    for (int i = 0; i < 200; i++) {
        ASSERT_TRUE(must([&](auto cb) {
                        kv.set(strprintf("key%03d", i),
                               strprintf("value-%d", i * 7), cb);
                    }).ok());
    }
    KvStore kv2(dev);
    ASSERT_TRUE(must([&](auto cb) { kv2.mount(cb); }).ok());
    EXPECT_EQ(kv2.keyCount(), 200u);
    EXPECT_EQ(kv2.get("key123").value(), "value-861");
}

// ---- FAT-32 ---------------------------------------------------------------------

class Fat32Test : public ::testing::Test
{
  protected:
    Fat32Test() : dev(65536), vol(dev) // 32 MB volume
    {
        EXPECT_TRUE(must([&](auto cb) { vol.format(cb); }).ok());
    }

    std::string
    readAll(const std::string &name)
    {
        std::string out;
        bool eof = false;
        std::shared_ptr<Fat32Volume::FileReader> reader;
        vol.open(name, [&](auto r) {
            ASSERT_TRUE(r.ok());
            reader = r.value();
        });
        if (!reader)
            return "<open failed>";
        while (!eof) {
            reader->next([&](Result<Cstruct> r) {
                ASSERT_TRUE(r.ok());
                if (r.value().empty())
                    eof = true;
                else
                    out += r.value().toString();
            });
        }
        return out;
    }

    MemDevice dev;
    Fat32Volume vol;
};

TEST_F(Fat32Test, NormaliseNames)
{
    EXPECT_EQ(Fat32Volume::normaliseName("readme.txt").value(),
              "README.TXT");
    EXPECT_EQ(Fat32Volume::normaliseName("ZONE").value(), "ZONE");
    EXPECT_FALSE(Fat32Volume::normaliseName("toolongname.txt").ok());
    EXPECT_FALSE(Fat32Volume::normaliseName("a.toolong").ok());
    EXPECT_FALSE(Fat32Volume::normaliseName("a.b.c").ok());
}

TEST_F(Fat32Test, WriteListRead)
{
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("hello.txt",
                                  Cstruct::ofString("hello fat32"),
                                  cb);
                }).ok());
    std::vector<FatDirEntry> entries;
    vol.list([&](auto r) {
        ASSERT_TRUE(r.ok());
        entries = r.value();
    });
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "HELLO.TXT");
    EXPECT_EQ(entries[0].sizeBytes, 11u);
    EXPECT_EQ(readAll("hello.txt"), "hello fat32");
}

TEST_F(Fat32Test, MultiClusterFileReadsSectorBySector)
{
    // 3 clusters (12 kB) forces a FAT chain.
    std::string big;
    for (int i = 0; i < 12000; i++)
        big += char('a' + (i % 26));
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("big.dat", Cstruct::ofString(big), cb);
                }).ok());
    // Count iterator steps: sectors of 512, last partial.
    std::shared_ptr<Fat32Volume::FileReader> reader;
    vol.open("big.dat", [&](auto r) {
        ASSERT_TRUE(r.ok());
        reader = r.value();
    });
    ASSERT_TRUE(reader != nullptr);
    std::string out;
    int steps = 0;
    bool eof = false;
    while (!eof) {
        reader->next([&](Result<Cstruct> r) {
            ASSERT_TRUE(r.ok());
            if (r.value().empty()) {
                eof = true;
            } else {
                EXPECT_LE(r.value().length(), 512u);
                out += r.value().toString();
                steps++;
            }
        });
    }
    EXPECT_EQ(out, big);
    EXPECT_EQ(steps, (12000 + 511) / 512);
    // Internal buffering: one device read per 4 kB cluster, not per
    // sector (plus directory/metadata reads).
}

TEST(Fat32Lifetime, AbandonedWriteFreesContinuation)
{
    MemDevice mem(65536);
    SwallowDevice dev(mem);
    Fat32Volume vol(dev);
    ASSERT_TRUE(must([&](auto cb) { vol.format(cb); }).ok());

    auto sentinel = std::make_shared<int>(1);
    std::weak_ptr<int> weak = sentinel;
    dev.swallowAfter(1); // first cluster lands, then the device dies
    std::string big(9000, 'x'); // spans multiple clusters
    vol.writeFile("big.bin", Cstruct::ofString(big),
                  [sentinel](Status) {
                      FAIL() << "abandoned write must never complete";
                  });
    sentinel.reset();
    EXPECT_GT(dev.swallowed(), 0u);
    EXPECT_TRUE(weak.expired())
        << "dropped I/O must free the write-cluster loop";
}

TEST_F(Fat32Test, OverwriteReplacesChain)
{
    u32 free_before = vol.freeClusters();
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("f.bin",
                                  Cstruct(Buffer::alloc(9000)), cb);
                }).ok());
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("f.bin", Cstruct::ofString("tiny"),
                                  cb);
                }).ok());
    EXPECT_EQ(readAll("f.bin"), "tiny");
    // Old 3-cluster chain freed; only 1 cluster now in use.
    EXPECT_EQ(vol.freeClusters(), free_before - 1);
}

TEST_F(Fat32Test, DeleteFreesClusters)
{
    u32 free_before = vol.freeClusters();
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("gone.txt",
                                  Cstruct::ofString("bye"), cb);
                }).ok());
    ASSERT_TRUE(
        must([&](auto cb) { vol.removeFile("gone.txt", cb); }).ok());
    EXPECT_EQ(vol.freeClusters(), free_before);
    std::vector<FatDirEntry> entries;
    vol.list([&](auto r) { entries = r.value(); });
    EXPECT_TRUE(entries.empty());
    bool open_failed = false;
    vol.open("gone.txt", [&](auto r) { open_failed = !r.ok(); });
    EXPECT_TRUE(open_failed);
}

TEST_F(Fat32Test, RemountSeesFiles)
{
    ASSERT_TRUE(must([&](auto cb) {
                    vol.writeFile("persist.txt",
                                  Cstruct::ofString("still here"), cb);
                }).ok());
    Fat32Volume vol2(dev);
    ASSERT_TRUE(must([&](auto cb) { vol2.mount(cb); }).ok());
    std::vector<FatDirEntry> entries;
    vol2.list([&](auto r) { entries = r.value(); });
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].name, "PERSIST.TXT");
}

// ---- B-tree ---------------------------------------------------------------------

class BTreeTest : public ::testing::Test
{
  protected:
    BTreeTest() : dev(1u << 16), tree(dev) // 32 MB log
    {
        EXPECT_TRUE(must([&](auto cb) { tree.format(cb); }).ok());
    }

    void
    set(const std::string &k, const std::string &v)
    {
        ASSERT_TRUE(must([&](auto cb) { tree.set(k, v, cb); }).ok());
    }

    Result<std::string>
    get(const std::string &k)
    {
        Result<std::string> out = notFoundError("never ran");
        tree.get(k, [&](Result<std::string> r) { out = r; });
        return out;
    }

    MemDevice dev;
    BTree tree;
};

TEST_F(BTreeTest, InsertLookup)
{
    set("b", "2");
    set("a", "1");
    set("c", "3");
    EXPECT_EQ(get("a").value(), "1");
    EXPECT_EQ(get("b").value(), "2");
    EXPECT_EQ(get("c").value(), "3");
    EXPECT_FALSE(get("d").ok());
    EXPECT_EQ(tree.entryCount(), 3u);
}

TEST_F(BTreeTest, OverwriteUpdatesInPlaceLogically)
{
    set("k", "old");
    set("k", "new");
    EXPECT_EQ(get("k").value(), "new");
    EXPECT_EQ(tree.entryCount(), 1u);
}

TEST_F(BTreeTest, SplitsKeepAllKeysReachable)
{
    // Enough keys to force multiple levels (maxKeys = 8).
    for (int i = 0; i < 500; i++)
        set(strprintf("key%04d", i), strprintf("v%d", i));
    EXPECT_EQ(tree.entryCount(), 500u);
    for (int i = 0; i < 500; i += 7)
        EXPECT_EQ(get(strprintf("key%04d", i)).value(),
                  strprintf("v%d", i));
}

TEST_F(BTreeTest, RangeQueryOrdered)
{
    for (int i = 0; i < 100; i++)
        set(strprintf("k%03d", i), strprintf("v%d", i));
    std::vector<std::pair<std::string, std::string>> out;
    tree.range("k020", "k029", [&](auto r) {
        ASSERT_TRUE(r.ok());
        out = r.value();
    });
    ASSERT_EQ(out.size(), 10u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(out.front().first, "k020");
    EXPECT_EQ(out.back().first, "k029");
}

TEST(BTreeLifetime, AbandonedRangeWalkFreesContinuation)
{
    // Seed a multi-level tree through the raw device, then walk it
    // through a device that drops an in-flight read. The range
    // continuation chain must unwind and free its captures; the
    // stored-function self-capture idiom rangeWalk used to carry
    // would leak the whole closure graph here.
    MemDevice mem(1u << 16);
    {
        BTree seed(mem);
        ASSERT_TRUE(must([&](auto cb) { seed.format(cb); }).ok());
        for (int i = 0; i < 200; i++)
            ASSERT_TRUE(
                must([&](auto cb) {
                    seed.set(strprintf("k%03d", i), "v", cb);
                }).ok());
    }
    SwallowDevice dev(mem);
    BTree tree(dev);
    ASSERT_TRUE(must([&](auto cb) { tree.mount(cb); }).ok());

    auto sentinel = std::make_shared<int>(1);
    std::weak_ptr<int> weak = sentinel;
    dev.swallowAfter(1); // the walk's next node read never completes
    tree.range("k000", "k199", [sentinel](auto) {
        FAIL() << "abandoned walk must never complete";
    });
    sentinel.reset();
    EXPECT_GT(dev.swallowed(), 0u);
    EXPECT_TRUE(weak.expired())
        << "dropped I/O must free the whole continuation chain";
}

TEST_F(BTreeTest, RemoveHidesKey)
{
    for (int i = 0; i < 50; i++)
        set(strprintf("k%02d", i), "v");
    ASSERT_TRUE(must([&](auto cb) { tree.remove("k25", cb); }).ok());
    EXPECT_FALSE(get("k25").ok());
    EXPECT_EQ(get("k24").value(), "v");
    EXPECT_EQ(get("k26").value(), "v");
    EXPECT_EQ(tree.entryCount(), 49u);
}

TEST_F(BTreeTest, CopyOnWriteNeverOverwritesOldRoot)
{
    // Simulate crash recovery: remember the device contents after N
    // inserts; later inserts must not corrupt the committed tree
    // (append-only property: old sectors unchanged except superblock).
    for (int i = 0; i < 20; i++)
        set(strprintf("k%02d", i), "v1");
    u64 log_after_20 = tree.logBytes();
    std::vector<u8> snapshot(dev.raw() + 512,
                             dev.raw() + 512 + log_after_20);
    for (int i = 0; i < 20; i++)
        set(strprintf("k%02d", i), "v2");
    EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(),
                           dev.raw() + 512))
        << "append-only log must never rewrite committed bytes";
    EXPECT_EQ(get("k05").value(), "v2");
}

TEST_F(BTreeTest, MountRecoversCommittedState)
{
    for (int i = 0; i < 64; i++)
        set(strprintf("k%02d", i), strprintf("v%d", i));
    BTree tree2(dev);
    ASSERT_TRUE(must([&](auto cb) { tree2.mount(cb); }).ok());
    EXPECT_EQ(tree2.entryCount(), 64u);
    Result<std::string> r = notFoundError("x");
    tree2.get("k33", [&](auto res) { r = res; });
    EXPECT_EQ(r.value(), "v33");
}

TEST(BTreeConcurrency, SetsInFlightTogetherAllLand)
{
    // Every set is called before any write completes; each must still
    // land, both in the live tree and after a remount.
    MemDevice mem(1u << 16);
    HoldDevice dev(mem);
    BTree tree(dev);
    bool formatted = false;
    tree.format([&](Status st) { formatted = st.ok(); });
    dev.release();
    ASSERT_TRUE(formatted);

    constexpr int n = 24; // enough to split leaves and grow a level
    int acked = 0;
    for (int i = 0; i < n; i++)
        tree.set(strprintf("k%02d", i), strprintf("v%d", i),
                 [&](Status st) {
                     EXPECT_TRUE(st.ok());
                     acked++;
                 });
    dev.release();
    ASSERT_EQ(acked, n);
    EXPECT_EQ(tree.entryCount(), u64(n));

    BTree remounted(mem);
    ASSERT_TRUE(must([&](auto cb) { remounted.mount(cb); }).ok());
    EXPECT_EQ(remounted.entryCount(), u64(n));
    for (BTree *t : {&tree, &remounted}) {
        for (int i = 0; i < n; i++) {
            Result<std::string> r = notFoundError("never ran");
            t->get(strprintf("k%02d", i), [&](auto res) { r = res; });
            ASSERT_TRUE(r.ok()) << "acknowledged key k" << i << " lost";
            EXPECT_EQ(r.value(), strprintf("v%d", i));
        }
    }
}

TEST_F(BTreeTest, RejectsOversizedItems)
{
    std::string huge_key(300, 'k');
    std::string huge_val(1000, 'v');
    EXPECT_FALSE(
        must([&](auto cb) { tree.set(huge_key, "v", cb); }).ok());
    EXPECT_FALSE(
        must([&](auto cb) { tree.set("k", huge_val, cb); }).ok());
}

/** Property: random insert/delete sequences match a std::map. */
class BTreeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BTreeProperty, MatchesReferenceModel)
{
    MemDevice dev(1u << 17);
    BTree tree(dev);
    ASSERT_TRUE(must([&](auto cb) { tree.format(cb); }).ok());
    std::map<std::string, std::string> model;
    Rng rng{u64(GetParam()) * 977 + 13};
    for (int op = 0; op < 400; op++) {
        std::string key = strprintf("key%03llu",
                                    (unsigned long long)rng.below(120));
        if (model.empty() || rng.uniform() < 0.7) {
            std::string val =
                strprintf("v%llu", (unsigned long long)rng.next());
            must([&](auto cb) { tree.set(key, val, cb); });
            model[key] = val;
        } else {
            must([&](auto cb) { tree.remove(key, cb); });
            model.erase(key);
        }
    }
    EXPECT_EQ(tree.entryCount(), model.size());
    for (const auto &[k, v] : model) {
        Result<std::string> r = notFoundError("x");
        tree.get(k, [&](auto res) { r = res; });
        ASSERT_TRUE(r.ok()) << k;
        EXPECT_EQ(r.value(), v);
    }
    // Full range scan equals the model in order.
    std::vector<std::pair<std::string, std::string>> all;
    tree.range("", "~~~~", [&](auto r) {
        ASSERT_TRUE(r.ok());
        all = r.value();
    });
    ASSERT_EQ(all.size(), model.size());
    auto mit = model.begin();
    for (const auto &[k, v] : all) {
        EXPECT_EQ(k, mit->first);
        EXPECT_EQ(v, mit->second);
        ++mit;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeProperty, ::testing::Range(0, 8));

// ---- Memoizer -------------------------------------------------------------------

TEST(MemoizeTest, HitsAvoidRecomputation)
{
    Memoizer<std::string, int> memo(8);
    int computed = 0;
    auto compute = [&] {
        computed++;
        return 42;
    };
    EXPECT_EQ(memo.get("q", compute), 42);
    EXPECT_EQ(memo.get("q", compute), 42);
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(memo.misses(), 1u);
}

TEST(MemoizeTest, LruEvictsOldest)
{
    Memoizer<int, int> memo(3);
    for (int i = 0; i < 4; i++)
        memo.insert(i, i * 10);
    EXPECT_EQ(memo.size(), 3u);
    EXPECT_EQ(memo.peek(0), nullptr) << "oldest entry must be evicted";
    ASSERT_NE(memo.peek(3), nullptr);
    EXPECT_EQ(*memo.peek(3), 30);
    EXPECT_EQ(memo.evictions(), 1u);
}

TEST(MemoizeTest, TouchRefreshesRecency)
{
    Memoizer<int, int> memo(2);
    memo.insert(1, 10);
    memo.insert(2, 20);
    memo.peek(1); // refresh 1
    memo.insert(3, 30);
    EXPECT_NE(memo.peek(1), nullptr);
    EXPECT_EQ(memo.peek(2), nullptr);
}

} // namespace
} // namespace mirage::storage
