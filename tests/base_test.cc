/**
 * @file
 * Unit tests for the base layer: Cstruct views, endian accessors,
 * checksums, Result, and the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/checksum.h"
#include "base/cstruct.h"
#include "base/rand.h"
#include "base/result.h"

namespace mirage {
namespace {

TEST(BufferTest, AllocZeroed)
{
    auto buf = Buffer::alloc(64);
    ASSERT_EQ(buf->size(), 64u);
    for (std::size_t i = 0; i < 64; i++)
        EXPECT_EQ(buf->data()[i], 0);
}

TEST(BufferTest, ReleaseHookRunsOnLastDrop)
{
    int released = 0;
    {
        auto buf = Buffer::alloc(16);
        buf->setReleaseHook([&](Buffer &) { released++; });
        auto copy = buf;
        buf.reset();
        EXPECT_EQ(released, 0) << "hook must not run while refs remain";
    }
    EXPECT_EQ(released, 1);
}

TEST(CstructTest, EndianRoundTrip)
{
    Cstruct c = Cstruct::create(32);
    c.setBe16(0, 0x1234);
    c.setBe32(2, 0xdeadbeef);
    c.setBe64(6, 0x0102030405060708ULL);
    c.setLe16(14, 0x1234);
    c.setLe32(16, 0xdeadbeef);
    c.setLe64(20, 0x0102030405060708ULL);
    EXPECT_EQ(c.getBe16(0), 0x1234);
    EXPECT_EQ(c.getBe32(2), 0xdeadbeefu);
    EXPECT_EQ(c.getBe64(6), 0x0102030405060708ULL);
    EXPECT_EQ(c.getLe16(14), 0x1234);
    EXPECT_EQ(c.getLe32(16), 0xdeadbeefu);
    EXPECT_EQ(c.getLe64(20), 0x0102030405060708ULL);
    // Big-endian bytes land most-significant first.
    EXPECT_EQ(c.getU8(0), 0x12);
    // Little-endian bytes land least-significant first.
    EXPECT_EQ(c.getU8(14), 0x34);
}

TEST(CstructTest, SubSharesUnderlyingBuffer)
{
    Cstruct c = Cstruct::create(100);
    Cstruct view = c.sub(10, 20);
    view.setU8(0, 0xab);
    EXPECT_EQ(c.getU8(10), 0xab) << "views must alias, not copy";
    EXPECT_EQ(view.buffer().get(), c.buffer().get());
}

TEST(CstructTest, ShiftDropsPrefix)
{
    Cstruct c = Cstruct::create(10);
    c.setU8(4, 7);
    Cstruct s = c.shift(4);
    EXPECT_EQ(s.length(), 6u);
    EXPECT_EQ(s.getU8(0), 7);
}

TEST(CstructTest, TrySubReportsBounds)
{
    Cstruct c = Cstruct::create(8);
    auto ok = c.trySub(0, 8);
    EXPECT_TRUE(ok.ok());
    auto bad = c.trySub(4, 8);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind, Error::Kind::Bounds);
}

TEST(CstructTest, TryGettersRejectTruncation)
{
    Cstruct c = Cstruct::create(3);
    EXPECT_TRUE(c.tryGetBe16(0).ok());
    EXPECT_FALSE(c.tryGetBe16(2).ok());
    EXPECT_FALSE(c.tryGetBe32(0).ok());
}

TEST(CstructTest, BlitCountsCopies)
{
    Cstruct a = Cstruct::create(16);
    Cstruct b = Cstruct::create(16);
    a.fill(0x5a);
    resetCopyStats();
    b.blitFrom(a, 0, 0, 16);
    EXPECT_EQ(copyStats().copies, 1u);
    EXPECT_EQ(copyStats().bytesCopied, 16u);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(CstructTest, SubDoesNotCopy)
{
    Cstruct a = Cstruct::create(64);
    resetCopyStats();
    Cstruct v = a.sub(8, 32);
    Cstruct w = v.shift(4);
    (void)w;
    EXPECT_EQ(copyStats().copies, 0u) << "slicing must be zero-copy";
}

TEST(CstructViewTest, BorrowsTheBufferWithoutAReference)
{
    Cstruct c = Cstruct::create(64);
    CstructView v = c.view(8, 16);
    EXPECT_EQ(c.buffer().use_count(), 1) << "a view must not own";
    EXPECT_EQ(v.data(), c.data() + 8);
    EXPECT_EQ(v.length(), 16u);
    v.setLe32(0, 0xdeadbeef);
    EXPECT_EQ(c.getLe32(8), 0xdeadbeefu) << "a view aliases, never copies";
}

TEST(CstructViewTest, ViewOutsideItsCstructPanics)
{
    Cstruct c = Cstruct::create(64);
    EXPECT_EQ(c.view(48, 16).length(), 16u);
    EXPECT_DEATH(c.view(49, 16), "access \\[49, 65\\) in view of 64");
}

TEST(CstructViewTest, EveryAccessorIsCheckedToTheLastByte)
{
    // Each accessor of width w passes at len - w and panics one byte
    // later, through the bounds check Cstruct uses.
    constexpr std::size_t len = 24;
    Cstruct c = Cstruct::create(64);
    struct Accessor
    {
        const char *name;
        std::size_t width;
        void (*use)(CstructView &v, std::size_t off);
    };
    const Accessor accessors[] = {
        {"getU8", 1, [](CstructView &v, std::size_t o) { (void)v.getU8(o); }},
        {"getLe16", 2,
         [](CstructView &v, std::size_t o) { (void)v.getLe16(o); }},
        {"getLe32", 4,
         [](CstructView &v, std::size_t o) { (void)v.getLe32(o); }},
        {"getLe64", 8,
         [](CstructView &v, std::size_t o) { (void)v.getLe64(o); }},
        {"getBe16", 2,
         [](CstructView &v, std::size_t o) { (void)v.getBe16(o); }},
        {"getBe32", 4,
         [](CstructView &v, std::size_t o) { (void)v.getBe32(o); }},
        {"getBe64", 8,
         [](CstructView &v, std::size_t o) { (void)v.getBe64(o); }},
        {"setU8", 1, [](CstructView &v, std::size_t o) { v.setU8(o, 1); }},
        {"setLe16", 2,
         [](CstructView &v, std::size_t o) { v.setLe16(o, 1); }},
        {"setLe32", 4,
         [](CstructView &v, std::size_t o) { v.setLe32(o, 1); }},
        {"setLe64", 8,
         [](CstructView &v, std::size_t o) { v.setLe64(o, 1); }},
        {"setBe16", 2,
         [](CstructView &v, std::size_t o) { v.setBe16(o, 1); }},
        {"setBe32", 4,
         [](CstructView &v, std::size_t o) { v.setBe32(o, 1); }},
        {"setBe64", 8,
         [](CstructView &v, std::size_t o) { v.setBe64(o, 1); }},
    };
    for (const Accessor &a : accessors) {
        SCOPED_TRACE(a.name);
        CstructView v = c.view(16, len);
        a.use(v, len - a.width);
        EXPECT_DEATH(a.use(v, len - a.width + 1), "in view of 24 bytes");
    }
    // Nothing past the view was written by the passing accesses.
    for (std::size_t i = 16 + len; i < 64; i++)
        EXPECT_EQ(c.getU8(i), 0u);
}

TEST(CstructTest, OfStringRoundTrip)
{
    Cstruct c = Cstruct::ofString("hello");
    EXPECT_EQ(c.length(), 5u);
    EXPECT_EQ(c.toString(), "hello");
}

TEST(ChecksumTest, KnownVector)
{
    // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
    const u8 bytes[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
    Cstruct c(Buffer::fromBytes(bytes, sizeof(bytes)));
    EXPECT_EQ(internetChecksum(c), 0x220d);
}

TEST(ChecksumTest, VerifiesToZero)
{
    Cstruct c = Cstruct::create(20);
    for (std::size_t i = 0; i < 20; i++)
        c.setU8(i, u8(i * 13 + 1));
    c.setBe16(10, 0); // checksum field
    u16 sum = internetChecksum(c);
    c.setBe16(10, sum);
    // A packet with a correct checksum sums to zero.
    EXPECT_EQ(internetChecksum(c), 0);
}

TEST(ChecksumTest, ScatterEqualsContiguous)
{
    Cstruct c = Cstruct::create(33); // odd length exercises the carry
    for (std::size_t i = 0; i < c.length(); i++)
        c.setU8(i, u8(i * 7 + 3));
    u16 whole = internetChecksum(c);
    // Split at an odd boundary: the accumulator must stitch the halves.
    u16 split = internetChecksum({c.sub(0, 13), c.sub(13, 20)});
    EXPECT_EQ(whole, split);
}

/** RFC 1071 the slow way: one big-endian byte pair at a time over the
 *  concatenated bytes, a trailing odd byte padded with zero. */
u16
bytePairChecksum(u16 first_word, const std::vector<u8> &bytes)
{
    u64 sum = first_word;
    for (std::size_t i = 0; i < bytes.size(); i += 2) {
        u64 lo = i + 1 < bytes.size() ? bytes[i + 1] : 0;
        sum += (u64(bytes[i]) << 8) | lo;
    }
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return u16(~sum & 0xffff);
}

TEST(ChecksumTest, MatchesBytePairReferenceOverAnySplit)
{
    // Random, all-zero and all-0xff contents at every length up to
    // 2000, viewed from a random (often odd) buffer offset and added
    // as random fragments: finish() must equal the reference,
    // including which encoding of zero it picks (0x0000 for a nonzero
    // sum of all-ones, 0xffff for all zeros).
    Rng rng(1071);
    for (std::size_t len = 0; len <= 2000; len++) {
        for (int fill : {-1, 0x00, 0xff}) {
            std::size_t start = rng.below(8);
            Cstruct buf = Cstruct::create(start + len);
            std::vector<u8> bytes(len);
            for (std::size_t i = 0; i < len; i++) {
                bytes[i] = fill < 0 ? u8(rng.next()) : u8(fill);
                buf.setU8(start + i, bytes[i]);
            }
            Cstruct view = buf.sub(start, len);
            // A pseudo-header word ahead of the data, as UDP and TCP
            // add one; zero half the time.
            u16 word = rng.below(2) ? u16(rng.next()) : 0;
            ChecksumAccumulator acc;
            acc.addWord(word);
            for (std::size_t at = 0; at < len;) {
                u64 most = rng.below(2) ? 9 : 600;
                std::size_t n = 1 + rng.below(std::min<u64>(most, len - at));
                acc.add(view.sub(at, n));
                at += n;
                if (rng.below(8) == 0)
                    acc.add(view.sub(at, 0));
            }
            u16 want = bytePairChecksum(word, bytes);
            ASSERT_EQ(acc.finish(), want)
                << "len " << len << " fill " << fill << " start " << start;
            if (word == 0)
                ASSERT_EQ(internetChecksum(view), want) << "len " << len;
        }
    }
    std::vector<u8> zeros(64, 0x00), ones(64, 0xff);
    EXPECT_EQ(internetChecksum(Cstruct(Buffer::fromBytes(zeros.data(), 64))),
              0xffff);
    EXPECT_EQ(internetChecksum(Cstruct(Buffer::fromBytes(ones.data(), 64))),
              0x0000);
}

TEST(ResultTest, ValueAndError)
{
    Result<int> ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);

    Result<int> bad(parseError("nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind, Error::Kind::Parse);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

TEST(RngTest, Deterministic)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        u64 v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

/** Property sweep: sub(sub) composes like a single sub. */
class CstructSliceProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CstructSliceProperty, NestedSubEqualsFlatSub)
{
    Rng r{u64(GetParam())};
    Cstruct base = Cstruct::create(256);
    for (std::size_t i = 0; i < 256; i++)
        base.setU8(i, u8(r.next()));
    std::size_t o1 = r.below(100), l1 = 100 + r.below(100);
    Cstruct v1 = base.sub(o1, l1);
    std::size_t o2 = r.below(l1 / 2), l2 = r.below(l1 - o2);
    Cstruct nested = v1.sub(o2, l2);
    Cstruct flat = base.sub(o1 + o2, l2);
    EXPECT_TRUE(nested.contentEquals(flat));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CstructSliceProperty,
                         ::testing::Range(0, 20));

} // namespace
} // namespace mirage
