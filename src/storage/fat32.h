/**
 * @file
 * FAT-32 filesystem library (Table 1, §3.5.2): boot-sector/BPB
 * parsing, an in-memory FAT with write-back of dirty sectors, a root
 * directory of 8.3 entries, and file reads returned as iterators
 * supplying one sector at a time — the paper's explicit buffer
 * management policy ("avoids building large lists in the heap while
 * permitting internal buffering within the library").
 */

#ifndef MIRAGE_STORAGE_FAT32_H
#define MIRAGE_STORAGE_FAT32_H

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/block.h"

namespace mirage::storage {

/** One root-directory entry. */
struct FatDirEntry
{
    std::string name; //!< canonical "NAME.EXT" form
    u32 firstCluster;
    u32 sizeBytes;
};

class Fat32Volume
{
  public:
    static constexpr u32 sectorsPerCluster = 8; //!< 4 kB clusters
    static constexpr u32 reservedSectors = 32;
    static constexpr u32 endOfChain = 0x0ffffff8;
    static constexpr u32 rootCluster = 2;

    explicit Fat32Volume(BlockDevice &dev) : dev_(dev) {}

    /** Write a fresh FAT-32 layout onto the device. */
    void format(std::function<void(Status)> done);

    /** Read the boot sector and cache the FAT. */
    void mount(std::function<void(Status)> done);

    bool mounted() const { return mounted_; }
    u32 freeClusters() const;

    /** List root-directory entries. */
    void list(std::function<void(Result<std::vector<FatDirEntry>>)> done);

    /** Create or replace @p name with @p data. */
    void writeFile(const std::string &name, Cstruct data,
                   std::function<void(Status)> done);

    /** Delete @p name and free its chain. */
    void removeFile(const std::string &name,
                    std::function<void(Status)> done);

    /**
     * Sector-at-a-time file reader (the paper's iterator policy). The
     * library internally fetches one cluster extent per device request
     * and hands out single-sector views.
     */
    class FileReader
    {
      public:
        /**
         * Fetch the next sector. The callback receives a view of up to
         * 512 bytes, an empty view at EOF, or an error.
         */
        void next(std::function<void(Result<Cstruct>)> done);

        u32 sizeBytes() const { return size_; }

      private:
        friend class Fat32Volume;
        FileReader(Fat32Volume &vol, u32 first_cluster, u32 size)
            : vol_(vol), cluster_(first_cluster), size_(size)
        {
        }

        Fat32Volume &vol_;
        u32 cluster_;
        u32 size_;
        u32 delivered_ = 0;
        Cstruct buffered_cluster_;
        u32 buffered_sector_index_ = sectorsPerCluster; //!< empty

        void deliverFromBuffer(
            const std::function<void(Result<Cstruct>)> &done);
    };

    /** Open @p name for reading. */
    void open(const std::string &name,
              std::function<void(Result<std::shared_ptr<FileReader>>)>
                  done);

    /** Canonicalise to 8.3; fails on names that do not fit. */
    static Result<std::string> normaliseName(const std::string &name);

  private:
    friend class FileReader;

    u64 fatStartSector() const { return reservedSectors; }
    u64 dataStartSector() const
    {
        return reservedSectors + fat_sectors_;
    }
    u64
    clusterToSector(u32 cluster) const
    {
        return dataStartSector() +
               u64(cluster - 2) * sectorsPerCluster;
    }

    u32 fatGet(u32 cluster) const;
    void fatSet(u32 cluster, u32 value);
    Result<std::vector<u32>> allocateChain(u32 clusters);
    void freeChain(u32 first);
    void flushFat(std::function<void(Status)> done);

    void readDir(std::function<void(Result<Cstruct>)> done);
    void writeDir(Cstruct dir, std::function<void(Status)> done);

    BlockDevice &dev_;
    bool mounted_ = false;
    u32 total_sectors_ = 0;
    u32 fat_sectors_ = 0;
    u32 cluster_count_ = 0;
    std::vector<u32> fat_;
    std::set<u32> dirty_fat_sectors_;
};

} // namespace mirage::storage

#endif // MIRAGE_STORAGE_FAT32_H
