/**
 * @file
 * Buffer — a reference-counted byte array underlying Cstruct views.
 *
 * Buffers model the paper's I/O pages: externally-allocated memory that
 * views (Cstructs) alias without copying. A Buffer may carry a release
 * hook; the I/O page pool uses it to reclaim a page when the last view
 * drops (Fig 4: "once views are all garbage-collected, the array is
 * returned to the free page pool").
 */

#ifndef MIRAGE_BASE_BYTES_H
#define MIRAGE_BASE_BYTES_H

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.h"

namespace mirage {

/** Global copy accounting, used by zero-copy tests and benches. */
struct CopyStats
{
    u64 copies = 0;      //!< number of blit operations
    u64 bytesCopied = 0; //!< total bytes moved by blits
};

/** The process-wide copy counters. */
CopyStats &copyStats();

/** Reset the copy counters. */
void resetCopyStats();

/** A contiguous, fixed-size byte array. Always heap-allocated & shared. */
class Buffer
{
  public:
    using ReleaseHook = std::function<void(Buffer &)>;

    /** Allocate a zero-filled buffer of @p size bytes. */
    static std::shared_ptr<Buffer> alloc(std::size_t size);

    /** Allocate and copy-in @p size bytes from @p data. */
    static std::shared_ptr<Buffer> fromBytes(const u8 *data,
                                             std::size_t size);

    ~Buffer();

    Buffer(const Buffer &) = delete;
    Buffer &operator=(const Buffer &) = delete;

    u8 *data() { return bytes_.data(); }
    const u8 *data() const { return bytes_.data(); }
    std::size_t size() const { return bytes_.size(); }

    /**
     * Install a hook run from the destructor. The I/O page pool uses this
     * to recycle pages once no view references them.
     */
    void setReleaseHook(ReleaseHook hook) { release_ = std::move(hook); }

  private:
    explicit Buffer(std::size_t size) : bytes_(size, 0) {}

    std::vector<u8> bytes_;
    ReleaseHook release_;
};

} // namespace mirage

#endif // MIRAGE_BASE_BYTES_H
