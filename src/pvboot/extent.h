/**
 * @file
 * The extent allocator (§3.2): reserves a contiguous area of virtual
 * memory and grows it in 2 MB superpage chunks; regions are statically
 * assigned roles (GC heap, I/O pages). Also defines MemoryBackend, the
 * heap-growth cost models compared in Fig 7a (xen-extent, xen-malloc,
 * linux-native, linux-pv).
 */

#ifndef MIRAGE_PVBOOT_EXTENT_H
#define MIRAGE_PVBOOT_EXTENT_H

#include <string>

#include "base/result.h"
#include "base/time.h"
#include "base/types.h"

namespace mirage::pvboot {

/** Contiguous virtual region handed out in 2 MB superpage chunks. */
class ExtentAllocator
{
  public:
    /**
     * @param base_vpn first page of the reserved virtual region
     * @param max_superpages size of the reservation in 2 MB units
     */
    ExtentAllocator(u64 base_vpn, std::size_t max_superpages);

    /**
     * Claim the next superpage.
     * @return the first vpn of the chunk, contiguous with the previous.
     */
    Result<u64> growSuperpage();

    u64 baseVpn() const { return base_vpn_; }
    u64 bytesUsed() const { return u64(used_) * superpageSize; }

    /** The defining property: the used region is one contiguous run. */
    bool
    contains(u64 vpn) const
    {
        u64 pages = u64(used_) * (superpageSize / pageSize);
        return vpn >= base_vpn_ && vpn < base_vpn_ + pages;
    }

  private:
    u64 base_vpn_;
    std::size_t max_;
    std::size_t used_ = 0;
};

/**
 * Heap-growth cost model: how much CPU time growing the managed heap
 * by N bytes costs, and whether the resulting heap is contiguous
 * (contiguity lets the GC skip the chunk-tracking table a userspace
 * collector needs — the paper's Fig 7a argument).
 */
class MemoryBackend
{
  public:
    struct Params
    {
        std::string name;
        bool contiguous;
        Duration perPage;        //!< per-4 kB mapping/fault cost
        Duration perSuperpage;   //!< per-2 MB mapping cost
        Duration perGrowSyscall; //!< syscall cost per growth chunk
        std::size_t growChunk;   //!< bytes obtained per grow call
    };

    explicit MemoryBackend(Params p) : p_(std::move(p)) {}

    /** Unikernel major heap via the extent allocator: superpages. */
    static MemoryBackend xenExtent();
    /** Unikernel heap via in-kernel malloc: 4 kB PV mappings. */
    static MemoryBackend xenMalloc();
    /** Userspace process on native Linux: mmap + demand faults. */
    static MemoryBackend linuxNative();
    /** Userspace process in a PV Linux guest: faults cost hypercalls. */
    static MemoryBackend linuxPv();

    /** CPU cost of growing the heap by @p bytes. */
    Duration growCost(std::size_t bytes) const;

    const std::string &name() const { return p_.name; }
    bool contiguous() const { return p_.contiguous; }

  private:
    Params p_;
};

} // namespace mirage::pvboot

#endif // MIRAGE_PVBOOT_EXTENT_H
