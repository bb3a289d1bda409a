/**
 * @file
 * The block layer (§3.5.2): one asynchronous interface shared by all
 * storage libraries, with implementations over the blkif ring (real
 * appliances) and over plain memory (unit tests and image tooling).
 * All writes are direct — the only built-in policy; caching is a
 * library choice layered above.
 */

#ifndef MIRAGE_STORAGE_BLOCK_H
#define MIRAGE_STORAGE_BLOCK_H

#include <functional>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"
#include "drivers/blkif.h"

namespace mirage::storage {

/** Completion callback for block operations. */
using BlockCallback = std::function<void(Status)>;

class BlockDevice
{
  public:
    static constexpr std::size_t sectorBytes = 512;
    /** Largest single request: one 4 kB page. */
    static constexpr u32 maxSectorsPerRequest = 8;

    virtual ~BlockDevice() = default;

    virtual u64 sizeSectors() const = 0;

    /** Read @p count sectors (1..8) into @p buf. */
    virtual void read(u64 sector, u32 count, Cstruct buf,
                      BlockCallback done) = 0;

    /** Write @p count sectors (1..8) from @p buf. */
    virtual void write(u64 sector, u32 count, Cstruct buf,
                       BlockCallback done) = 0;
};

/** Production device: the blkif frontend ring. */
class BlkifDevice : public BlockDevice
{
  public:
    explicit BlkifDevice(drivers::Blkif &blkif) : blkif_(blkif) {}

    u64 sizeSectors() const override { return blkif_.sizeSectors(); }
    void read(u64 sector, u32 count, Cstruct buf,
              BlockCallback done) override;
    void write(u64 sector, u32 count, Cstruct buf,
               BlockCallback done) override;

  private:
    drivers::Blkif &blkif_;
};

/** In-memory device for unit tests and offline image construction. */
class MemDevice : public BlockDevice
{
  public:
    explicit MemDevice(u64 size_sectors)
        : bytes_(size_sectors * sectorBytes, 0),
          size_sectors_(size_sectors)
    {
    }

    u64 sizeSectors() const override { return size_sectors_; }
    void read(u64 sector, u32 count, Cstruct buf,
              BlockCallback done) override;
    void write(u64 sector, u32 count, Cstruct buf,
               BlockCallback done) override;

    /** Direct access for image tooling. */
    u8 *raw() { return bytes_.data(); }
    u64 writesIssued() const { return writes_; }

  private:
    std::vector<u8> bytes_;
    u64 size_sectors_;
    u64 writes_ = 0;
};

/**
 * Multi-request helpers: split an arbitrarily large transfer into
 * page-sized requests issued sequentially.
 */
void readRange(BlockDevice &dev, u64 sector, u32 count, Cstruct buf,
               BlockCallback done);
void writeRange(BlockDevice &dev, u64 sector, u32 count, Cstruct buf,
                BlockCallback done);

} // namespace mirage::storage

#endif // MIRAGE_STORAGE_BLOCK_H
