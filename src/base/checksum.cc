#include "base/checksum.h"

#include <bit>
#include <cstring>

namespace mirage {

void
ChecksumAccumulator::add(const Cstruct &view)
{
    const u8 *p = view.data();
    std::size_t n = view.length();
    std::size_t i = 0;
    if (odd_ && n > 0) {
        // Complete the dangling high byte from the previous fragment.
        sum_ += p[0];
        i = 1;
        odd_ = false;
    }
    // Eight bytes a step, in host byte order (RFC 1071 §2(B)): the two
    // 32-bit halves of each load add into a u64 that cannot overflow
    // below 2^31 steps. The folded run is the byte-swapped big-endian
    // sum, and it folds to zero only when every byte is zero, so
    // finish() picks the same encoding of zero as a byte-pair loop.
    if (n - i >= 8) {
        u64 run = 0;
        for (; i + 8 <= n; i += 8) {
            u64 w;
            std::memcpy(&w, p + i, 8);
            run += (w & 0xffffffff) + (w >> 32);
        }
        while (run >> 16)
            run = (run & 0xffff) + (run >> 16);
        if constexpr (std::endian::native == std::endian::little)
            run = ((run & 0xff) << 8) | (run >> 8);
        sum_ += run;
    }
    for (; i + 1 < n; i += 2)
        sum_ += (u64(p[i]) << 8) | u64(p[i + 1]);
    if (i < n) {
        sum_ += u64(p[i]) << 8;
        odd_ = true;
    }
}

void
ChecksumAccumulator::addWord(u16 word)
{
    sum_ += word;
}

u16
ChecksumAccumulator::finish() const
{
    u64 s = sum_;
    while (s >> 16)
        s = (s & 0xffff) + (s >> 16);
    return static_cast<u16>(~s & 0xffff);
}

u16
internetChecksum(const Cstruct &view)
{
    ChecksumAccumulator acc;
    acc.add(view);
    return acc.finish();
}

u16
internetChecksum(const std::vector<Cstruct> &views)
{
    ChecksumAccumulator acc;
    for (const auto &v : views)
        acc.add(v);
    return acc.finish();
}

} // namespace mirage
