#include "drivers/grant_pool.h"

#include "base/logging.h"
#include "hypervisor/domain.h"
#include "sim/cost_model.h"
#include "sim/tuning.h"

namespace mirage::drivers {

GrantPool::GrantPool(pvboot::PVBoot &boot, xen::DomId backend)
    : boot_(boot), backend_(backend),
      issued_(trace::total(boot.domain().engine().metrics(),
                           "grant.issued")),
      reused_(trace::total(boot.domain().engine().metrics(),
                           "grant.reused"))
{
    // The hook may outlive a stack-allocated pool (hooks are not
    // removable); the drained_ flag lives in the pool, so guard with a
    // shared liveness token instead of `this` alone.
    auto alive = std::make_shared<GrantPool *>(this);
    alive_ = alive;
    boot_.domain().addShutdownHook([alive] {
        if (*alive)
            (*alive)->drain();
    });
}

GrantPool::~GrantPool()
{
    if (auto alive = alive_.lock())
        *alive = nullptr;
}

void
GrantPool::chargeReuse()
{
    reused_.inc();
    boot_.domain().vcpu().charge(sim::costs().grantReuse, "grant.reuse",
                                 trace::Cat::Hypervisor);
}

/**
 * Borrow bookkeeping for a pooled page: every view acquirePage hands
 * out aliases this lease's control block, so the buffer itself carries
 * exactly one extra reference (keep) while any borrower view lives.
 * When the last borrower view drops, the lease dies and the pool's
 * recycle listeners fire — the signal a stalled rx ring waits for.
 */
struct GrantPool::Lease
{
    Cstruct keep;                      //!< holds the page buffer alive
    std::shared_ptr<GrantPool *> pool; //!< liveness token (may be null)
    std::size_t at = 0;                //!< index in pages_ when leased

    ~Lease()
    {
        if (GrantPool *p = pool ? *pool : nullptr)
            p->leaseDied(at, keep.buffer().get());
        // else: the page outlived the pool
    }
};

Cstruct
GrantPool::leased(std::size_t at)
{
    PooledPage &p = pages_[at];
    p.leased = true;
    auto lease = std::make_shared<Lease>();
    lease->keep = p.page;
    lease->pool = alive_.lock();
    lease->at = at;
    // Aliasing view: shares the lease's lifetime, points at the page's
    // buffer — page_index_ lookups by buffer identity still match.
    std::shared_ptr<Buffer> alias(std::move(lease), p.page.buffer().get());
    return Cstruct(std::move(alias));
}

void
GrantPool::leaseDied(std::size_t at, const Buffer *buf)
{
    // drain() may have emptied pages_ since; the lease's own reference
    // keeps its buffer alive, so a matching identity is the same page.
    if (at < pages_.size() && pages_[at].page.buffer().get() == buf)
        pages_[at].leased = false;
    firing_++;
    for (std::size_t i = 0; i < listeners_.size(); i++)
        if (listeners_[i].first != 0)
            listeners_[i].second();
    if (--firing_ == 0)
        std::erase_if(listeners_,
                      [](const auto &l) { return l.first == 0; });
}

u64
GrantPool::addRecycleListener(std::function<void()> fn)
{
    CHECK(firing_ == 0);
    u64 token = next_listener_++;
    listeners_.emplace_back(token, std::move(fn));
    return token;
}

void
GrantPool::removeRecycleListener(u64 token)
{
    if (firing_ == 0) {
        std::erase_if(listeners_,
                      [token](const auto &l) { return l.first == token; });
        return;
    }
    // Mid-fire: a running listener may be the one removed, so only
    // mark it; leaseDied() erases once the loop is done.
    for (auto &l : listeners_)
        if (l.first == token)
            l.first = 0;
}

bool
GrantPool::pageFree(const PooledPage &p) const
{
    // Free means: only the pool's own view, the grant-table entry and
    // the backend's cached mapping(s) reference the buffer. Any
    // borrower — a tx fragment awaiting its ack, a posted rx buffer, a
    // stack-held rx view, an in-flight block request — adds a
    // reference and keeps the page busy.
    long expected =
        2 + long(boot_.domain().grantTable().mapCountOf(p.gref));
    return p.page.buffer().use_count() == expected;
}

Result<Cstruct>
GrantPool::acquirePage()
{
    std::size_t n = pages_.size();
    std::size_t start = n ? scan_hint_ % n : 0;
    for (std::size_t i = 0; i < n; i++) {
        std::size_t at = start + i < n ? start + i : start + i - n;
        // A leased page is busy: skip it without touching its buffer
        // or the grant table. Others may still be borrowed outside a
        // lease (a backend mapping), so pageFree() has the last word.
        if (pages_[at].leased || !pageFree(pages_[at]))
            continue;
        scan_hint_ = at + 1 == n ? 0 : at + 1;
        // The grant-op saving is counted at regionFor(), once per wire
        // operation; here we only pay the pool scan.
        boot_.domain().vcpu().charge(sim::costs().grantReuse,
                                     "grant.reuse", trace::Cat::Hypervisor);
        return leased(at);
    }
    if (pages_.size() >= sim::tuning().frontendPoolPages)
        return exhaustedError("grant pool at capacity, no free page");
    auto page = boot_.ioPages().allocPage();
    if (!page.ok())
        return page;
    // Writable grant: the same pooled page may carry a tx frame now
    // and an rx fill or block read later.
    xen::GrantRef gref = boot_.domain().grantTable().grantAccess(
        backend_, page.value(), false);
    boot_.domain().vcpu().charge(sim::costs().grantIssue, "grant.issue",
                                 trace::Cat::Hypervisor);
    issued_.inc();
    page_index_.emplace(page.value().buffer().get(), pages_.size());
    pages_.push_back(PooledPage{page.value(), gref});
    return leased(pages_.size() - 1);
}

GrantPool::Region
GrantPool::regionFor(const Cstruct &view)
{
    const Buffer *buf = view.buffer().get();
    if (!buf)
        return Region{};
    if (auto it = page_index_.find(buf); it != page_index_.end()) {
        chargeReuse();
        return Region{pages_[it->second].gref, view.bufferOffset(),
                      true};
    }
    if (auto it = regions_.find(buf); it != regions_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        chargeReuse();
        return Region{it->second.gref, view.bufferOffset(), true};
    }
    // First sight of this buffer. Make room if the registry is at its
    // cap; when every resident entry is still live (in-flight request,
    // backend mapping, or app reference), refuse — the caller falls
    // back to a one-shot grant rather than us revoking a grant some
    // ring slot still names.
    std::size_t cap = sim::tuning().frontendRegistryCap;
    if (regions_.size() >= cap) {
        evictRegistryIfNeeded();
        if (regions_.size() >= cap)
            return Region{};
    }
    Cstruct whole(view.buffer());
    xen::GrantRef gref =
        boot_.domain().grantTable().grantAccess(backend_, whole, false);
    boot_.domain().vcpu().charge(sim::costs().grantIssue, "grant.issue",
                                 trace::Cat::Hypervisor);
    issued_.inc();
    lru_.push_front(buf);
    regions_.emplace(buf, Registered{whole, gref, lru_.begin()});
    return Region{gref, view.bufferOffset(), true};
}

void
GrantPool::evictRegistryIfNeeded()
{
    std::size_t cap = sim::tuning().frontendRegistryCap;
    if (regions_.size() < cap)
        return;
    xen::GrantTable &gt = boot_.domain().grantTable();
    // Walk from the cold end, revoking fully idle entries: no backend
    // mapping (revoke-while-mapped is a checker violation) and no
    // reference besides ours and the grant table's — an enqueued
    // request the backend has not mapped yet still holds the fragment
    // view, so in-flight buffers never qualify.
    for (auto it = lru_.end();
         it != lru_.begin() && regions_.size() >= cap;) {
        --it;
        auto rit = regions_.find(*it);
        if (rit == regions_.end()) {
            it = lru_.erase(it);
            continue;
        }
        if (gt.mapCountOf(rit->second.gref) > 0)
            continue;
        if (rit->second.whole.buffer().use_count() > 2)
            continue;
        Status st = gt.endAccess(rit->second.gref);
        if (!st.ok()) {
            warn("grant pool: evict endAccess: %s",
                 st.error().message.c_str());
            continue;
        }
        regions_.erase(rit);
        it = lru_.erase(it);
    }
}

bool
GrantPool::bufferIsFree(const Buffer *buf) const
{
    auto it = page_index_.find(buf);
    if (it == page_index_.end())
        return true;
    return pageFree(pages_[it->second]);
}

std::size_t
GrantPool::freePages() const
{
    std::size_t n = 0;
    for (const PooledPage &p : pages_)
        if (pageFree(p))
            n++;
    return n;
}

void
GrantPool::drain()
{
    if (drained_)
        return;
    drained_ = true;
    xen::GrantTable &gt = boot_.domain().grantTable();
    for (const PooledPage &p : pages_) {
        if (gt.mapCountOf(p.gref) > 0)
            continue; // backend never disconnected; releaseAll handles it
        if (Status st = gt.endAccess(p.gref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    for (const auto &[buf, reg] : regions_) {
        if (gt.mapCountOf(reg.gref) > 0)
            continue;
        if (Status st = gt.endAccess(reg.gref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    pages_.clear();
    page_index_.clear();
    regions_.clear();
    lru_.clear();
}

} // namespace mirage::drivers
