/**
 * @file
 * The slab allocator PVBoot provides for the C side of the runtime
 * (§3.2: "one slab and one extent; the slab allocator supports the C
 * code in the runtime; as most code is OCaml it is not heavily used").
 *
 * A real free-list slab over size classes: objects are carved from 4 kB
 * slabs, freed objects return to their class's free list, and empty
 * slabs are reclaimed.
 */

#ifndef MIRAGE_PVBOOT_SLAB_H
#define MIRAGE_PVBOOT_SLAB_H

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "base/result.h"
#include "base/types.h"

namespace mirage::pvboot {

class SlabAllocator
{
  public:
    /** Size classes: powers of two from 16 to 2048 bytes. */
    static constexpr std::size_t minObject = 16;
    static constexpr std::size_t maxObject = 2048;

    /** @param capacity_pages total 4 kB pages this allocator may use. */
    explicit SlabAllocator(std::size_t capacity_pages);
    ~SlabAllocator();

    SlabAllocator(const SlabAllocator &) = delete;
    SlabAllocator &operator=(const SlabAllocator &) = delete;

    /**
     * Allocate @p size bytes (rounded up to a size class).
     * @return nullptr when the capacity is exhausted.
     */
    void *alloc(std::size_t size);

    /** Return an object of the size it was allocated with. */
    void free(void *ptr, std::size_t size);

    std::size_t pagesInUse() const { return pages_in_use_; }
    std::size_t bytesAllocated() const { return bytes_allocated_; }

  private:
    struct FreeObject
    {
        FreeObject *next;
    };

    struct Slab
    {
        std::unique_ptr<u8[]> memory;
        std::size_t classIndex;
        std::size_t liveObjects = 0;
    };

    static std::size_t classIndexFor(std::size_t size);
    static std::size_t classSize(std::size_t index);

    bool refill(std::size_t class_index);

    static constexpr std::size_t numClasses = 8; // 16..2048

    std::size_t capacity_pages_;
    std::size_t pages_in_use_ = 0;
    std::size_t bytes_allocated_ = 0;
    std::array<FreeObject *, numClasses> free_lists_{};
    std::vector<Slab> slabs_;
};

} // namespace mirage::pvboot

#endif // MIRAGE_PVBOOT_SLAB_H
