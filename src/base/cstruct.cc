#include "base/cstruct.h"

#include <cstring>

#include "base/logging.h"

namespace mirage {

Cstruct::Cstruct(std::shared_ptr<Buffer> buf)
    : buf_(std::move(buf)), off_(0), len_(buf_ ? buf_->size() : 0)
{
}

Cstruct::Cstruct(std::shared_ptr<Buffer> buf, std::size_t off,
                 std::size_t len)
    : buf_(std::move(buf)), off_(off), len_(len)
{
    if (!buf_ || off + len > buf_->size())
        panic("Cstruct: slice [%zu, %zu) exceeds buffer of %zu bytes", off,
              off + len, buf_ ? buf_->size() : 0);
}

Cstruct
Cstruct::create(std::size_t len)
{
    return Cstruct(Buffer::alloc(len));
}

Cstruct
Cstruct::ofString(const std::string &s)
{
    return Cstruct(
        Buffer::fromBytes(reinterpret_cast<const u8 *>(s.data()), s.size()));
}

void
rangePanic(std::size_t off, std::size_t n, std::size_t len)
{
    panic("Cstruct: access [%zu, %zu) in view of %zu bytes", off, off + n,
          len);
}

Cstruct
Cstruct::sub(std::size_t off, std::size_t len) const
{
    checkRange(off, len);
    return Cstruct(buf_, off_ + off, len);
}

Cstruct
Cstruct::shift(std::size_t n) const
{
    checkRange(n, 0);
    return Cstruct(buf_, off_ + n, len_ - n);
}

Result<Cstruct>
Cstruct::trySub(std::size_t off, std::size_t len) const
{
    if (off + len > len_)
        return boundsError(strprintf("sub [%zu,+%zu) of %zu-byte view", off,
                                     len, len_));
    return Cstruct(buf_, off_ + off, len);
}

Result<u8>
Cstruct::tryGetU8(std::size_t off) const
{
    if (off + 1 > len_)
        return boundsError("u8 read past end");
    return buf_->data()[off_ + off];
}

Result<u16>
Cstruct::tryGetBe16(std::size_t off) const
{
    if (off + 2 > len_)
        return boundsError("be16 read past end");
    return loadBe16(buf_->data() + off_ + off);
}

Result<u32>
Cstruct::tryGetBe32(std::size_t off) const
{
    if (off + 4 > len_)
        return boundsError("be32 read past end");
    return loadBe32(buf_->data() + off_ + off);
}

void
Cstruct::blitFrom(const Cstruct &src, std::size_t src_off,
                  std::size_t dst_off, std::size_t len)
{
    src.checkRange(src_off, len);
    checkRange(dst_off, len);
    std::memmove(buf_->data() + off_ + dst_off,
                 src.buf_->data() + src.off_ + src_off, len);
    copyStats().copies++;
    copyStats().bytesCopied += len;
}

void
Cstruct::fill(u8 value)
{
    if (len_ > 0)
        std::memset(buf_->data() + off_, value, len_);
}

std::string
Cstruct::toString() const
{
    copyStats().copies++;
    copyStats().bytesCopied += len_;
    return std::string(reinterpret_cast<const char *>(buf_->data() + off_),
                       len_);
}

bool
Cstruct::contentEquals(const Cstruct &other) const
{
    if (len_ != other.len_)
        return false;
    if (len_ == 0)
        return true;
    return std::memcmp(buf_->data() + off_,
                       other.buf_->data() + other.off_, len_) == 0;
}

u8 *
Cstruct::data()
{
    return buf_ ? buf_->data() + off_ : nullptr;
}

const u8 *
Cstruct::data() const
{
    return buf_ ? buf_->data() + off_ : nullptr;
}

} // namespace mirage
