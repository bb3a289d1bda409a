/**
 * @file
 * The reserved I/O page pool (Fig 2 / Fig 4): external memory pages
 * live outside the GC heap in their own region; Cstruct views alias
 * them, and when the last view drops the page returns to the free pool.
 * Keeping I/O data out of the scanned heap is one of the two factors
 * behind the stack's predictable performance (§3.3).
 */

#ifndef MIRAGE_PVBOOT_IO_PAGES_H
#define MIRAGE_PVBOOT_IO_PAGES_H

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"
#include "base/types.h"

namespace mirage::pvboot {

class IoPagePool
{
  public:
    explicit IoPagePool(std::size_t capacity_pages);
    ~IoPagePool();

    /**
     * Take a 4 kB page from the pool. The returned view (and any
     * sub-view sliced from it) keeps the page live; when the final view
     * is dropped the page returns to the pool automatically.
     */
    Result<Cstruct> allocPage();

    /**
     * Subscribe to page returns: @p fn runs whenever a page's last view
     * drops and it rejoins the free pool. Fired from the buffer's
     * destructor, so listeners must not allocate from the pool
     * re-entrantly — defer real work (e.g. rx restock) to the engine.
     * @return a token for removeRecycleListener.
     */
    u64 addRecycleListener(std::function<void()> fn);

    /** Drop a listener. Safe for tokens already removed. */
    void removeRecycleListener(u64 token);

    std::size_t capacity() const { return capacity_; }
    std::size_t inUse() const { return in_use_; }
    std::size_t highWater() const { return high_water_; }
    u64 allocations() const { return allocations_; }
    u64 recycled() const { return recycled_; }
    u64 exhaustions() const { return exhaustions_; }

  private:
    std::size_t capacity_;
    std::size_t in_use_ = 0;
    std::size_t high_water_ = 0;
    u64 allocations_ = 0;
    u64 recycled_ = 0;
    u64 exhaustions_ = 0;
    u64 next_listener_ = 1;
    std::vector<std::pair<u64, std::function<void()>>> listeners_;
    /**
     * Liveness token captured by every page's release hook: a buffer
     * can outlive the pool (e.g. a persistent grant held in the grant
     * table until hypervisor teardown), and its hook must then be a
     * no-op rather than touch freed pool state.
     */
    std::shared_ptr<IoPagePool *> alive_;
};

} // namespace mirage::pvboot

#endif // MIRAGE_PVBOOT_IO_PAGES_H
