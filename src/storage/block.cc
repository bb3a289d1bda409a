#include "storage/block.h"

#include <cstring>
#include <memory>

namespace mirage::storage {

void
BlkifDevice::read(u64 sector, u32 count, Cstruct buf, BlockCallback done)
{
    auto p = blkif_.read(sector, count, std::move(buf));
    p->onComplete([done = std::move(done)](rt::Promise &pr) {
        done(pr.resolvedOk()
                 ? Status::success()
                 : Status(Error(Error::Kind::Io, "blkif read failed")));
    });
}

void
BlkifDevice::write(u64 sector, u32 count, Cstruct buf, BlockCallback done)
{
    auto p = blkif_.write(sector, count, std::move(buf));
    p->onComplete([done = std::move(done)](rt::Promise &pr) {
        done(pr.resolvedOk()
                 ? Status::success()
                 : Status(Error(Error::Kind::Io, "blkif write failed")));
    });
}

void
MemDevice::read(u64 sector, u32 count, Cstruct buf, BlockCallback done)
{
    if (sector + count > size_sectors_ ||
        buf.length() < std::size_t(count) * sectorBytes) {
        done(boundsError("MemDevice read out of range"));
        return;
    }
    std::memcpy(buf.data(), bytes_.data() + sector * sectorBytes,
                std::size_t(count) * sectorBytes);
    done(Status::success());
}

void
MemDevice::write(u64 sector, u32 count, Cstruct buf, BlockCallback done)
{
    if (sector + count > size_sectors_ ||
        buf.length() < std::size_t(count) * sectorBytes) {
        done(boundsError("MemDevice write out of range"));
        return;
    }
    writes_++;
    std::memcpy(bytes_.data() + sector * sectorBytes, buf.data(),
                std::size_t(count) * sectorBytes);
    done(Status::success());
}

namespace {

/**
 * Splits a large transfer into page-sized requests kept in flight
 * concurrently (bounded), as a real driver queues scatter segments —
 * this is what lets large reads overlap the device's per-command
 * latency (Fig 9's rising curve).
 */
struct RangeOp : std::enable_shared_from_this<RangeOp>
{
    static constexpr u32 maxInflight = 16;

    BlockDevice &dev;
    u64 next_sector;
    u32 remaining;
    Cstruct buf;
    std::size_t offset = 0;
    bool is_write;
    BlockCallback done;
    u32 inflight = 0;
    bool failed = false;

    RangeOp(BlockDevice &d, u64 s, u32 c, Cstruct b, bool w,
            BlockCallback cb)
        : dev(d), next_sector(s), remaining(c), buf(std::move(b)),
          is_write(w), done(std::move(cb))
    {
    }

    void
    pump()
    {
        while (remaining > 0 && inflight < maxInflight && !failed) {
            u32 take =
                std::min(remaining, BlockDevice::maxSectorsPerRequest);
            Cstruct slice = buf.sub(
                offset, std::size_t(take) * BlockDevice::sectorBytes);
            u64 sector = next_sector;
            next_sector += take;
            remaining -= take;
            offset += std::size_t(take) * BlockDevice::sectorBytes;
            inflight++;
            auto self = shared_from_this();
            auto on_done = [self](Status st) {
                self->inflight--;
                if (!st.ok())
                    self->failed = true;
                self->pump();
            };
            if (is_write)
                dev.write(sector, take, slice, on_done);
            else
                dev.read(sector, take, slice, on_done);
        }
        if ((remaining == 0 || failed) && inflight == 0) {
            auto cb = std::move(done);
            done = nullptr;
            if (cb)
                cb(failed ? Status(Error(Error::Kind::Io,
                                         "range transfer failed"))
                          : Status::success());
        }
    }
};

} // namespace

void
readRange(BlockDevice &dev, u64 sector, u32 count, Cstruct buf,
          BlockCallback done)
{
    std::make_shared<RangeOp>(dev, sector, count, std::move(buf), false,
                              std::move(done))
        ->pump();
}

void
writeRange(BlockDevice &dev, u64 sector, u32 count, Cstruct buf,
           BlockCallback done)
{
    std::make_shared<RangeOp>(dev, sector, count, std::move(buf), true,
                              std::move(done))
        ->pump();
}

} // namespace mirage::storage
