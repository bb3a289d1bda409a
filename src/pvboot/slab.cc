#include "pvboot/slab.h"

#include "base/logging.h"

namespace mirage::pvboot {

SlabAllocator::SlabAllocator(std::size_t capacity_pages)
    : capacity_pages_(capacity_pages)
{
}

SlabAllocator::~SlabAllocator() = default;

std::size_t
SlabAllocator::classIndexFor(std::size_t size)
{
    std::size_t cls = minObject;
    std::size_t index = 0;
    while (cls < size) {
        cls <<= 1;
        index++;
    }
    return index;
}

std::size_t
SlabAllocator::classSize(std::size_t index)
{
    return minObject << index;
}

bool
SlabAllocator::refill(std::size_t class_index)
{
    if (pages_in_use_ >= capacity_pages_)
        return false;
    pages_in_use_++;
    Slab slab{std::make_unique<u8[]>(pageSize), class_index, 0};
    std::size_t obj_size = classSize(class_index);
    std::size_t count = pageSize / obj_size;
    for (std::size_t i = 0; i < count; i++) {
        auto *obj =
            reinterpret_cast<FreeObject *>(slab.memory.get() + i * obj_size);
        obj->next = free_lists_[class_index];
        free_lists_[class_index] = obj;
    }
    slabs_.push_back(std::move(slab));
    return true;
}

void *
SlabAllocator::alloc(std::size_t size)
{
    if (size == 0 || size > maxObject)
        return nullptr;
    std::size_t index = classIndexFor(size);
    if (!free_lists_[index] && !refill(index))
        return nullptr;
    FreeObject *obj = free_lists_[index];
    free_lists_[index] = obj->next;
    bytes_allocated_ += classSize(index);
    return obj;
}

void
SlabAllocator::free(void *ptr, std::size_t size)
{
    if (!ptr)
        return;
    CHECK_GT(size, std::size_t(0));
    CHECK_LE(size, maxObject);
    std::size_t index = classIndexFor(size);
    auto *obj = static_cast<FreeObject *>(ptr);
    obj->next = free_lists_[index];
    free_lists_[index] = obj;
    bytes_allocated_ -= classSize(index);
}

} // namespace mirage::pvboot
