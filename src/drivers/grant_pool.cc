#include "drivers/grant_pool.h"

#include <algorithm>
#include <iterator>

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
    long expected = 2 + long(boot_.domain().grantTable().mapCount(p.grant));
    return p.page.buffer().use_count() == expected;
}

Result<std::size_t>
GrantPool::acquireIndex()
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
        // The grant-op saving is counted at regionFor() (or
        // acquireGranted()), once per wire operation; here we only pay
        // the pool scan.
        boot_.domain().vcpu().charge(sim::costs().grantReuse,
                                     "grant.reuse", trace::Cat::Hypervisor);
        return at;
    }
    if (pages_.size() >= sim::tuning().frontendPoolPages)
        return exhaustedError("grant pool at capacity, no free page");
    auto page = boot_.ioPages().allocPage();
    if (!page.ok())
        return page.error();
    // Writable grant: the same pooled page may carry a tx frame now
    // and an rx fill or block read later.
    xen::GrantTable &gt = boot_.domain().grantTable();
    xen::GrantRef gref = gt.grantAccess(backend_, page.value(), false);
    boot_.domain().vcpu().charge(sim::costs().grantIssue, "grant.issue",
                                 trace::Cat::Hypervisor);
    issued_.inc();
    page_index_.emplace(page.value().buffer().get(), pages_.size());
    pages_.push_back(PooledPage{page.value(), gt.handleOf(gref)});
    return pages_.size() - 1;
}

Result<Cstruct>
GrantPool::acquirePage()
{
    auto at = acquireIndex();
    if (!at.ok())
        return at.error();
    return leased(at.value());
}

Result<GrantPool::Granted>
GrantPool::acquireGranted()
{
    auto at = acquireIndex();
    if (!at.ok())
        return at.error();
    Cstruct page = leased(at.value());
    chargeReuse(); // what regionFor() charges for a tier-A page
    return Granted{std::move(page), pages_[at.value()].grant.ref};
}

GrantPool::Region
GrantPool::regionFor(const Cstruct &view)
{
    const Buffer *buf = view.buffer().get();
    if (!buf)
        return Region{};
    if (auto it = page_index_.find(buf); it != page_index_.end()) {
        chargeReuse();
        return Region{pages_[it->second].grant.ref, view.bufferOffset(),
                      true};
    }
    if (auto it = regions_.find(buf); it != regions_.end()) {
        // Move the entry to the hot end; hot entries sit near it, so
        // search from there.
        xen::GrantRef gref = it->second;
        auto hit = std::find_if(
            lru_.rbegin(), lru_.rend(),
            [gref](const Registered &r) { return r.gref == gref; });
        CHECK(hit != lru_.rend());
        std::rotate(std::prev(hit.base()), hit.base(), lru_.end());
        chargeReuse();
        return Region{gref, view.bufferOffset(), true};
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
    lru_.push_back(Registered{std::move(whole), gref});
    regions_.emplace(buf, gref);
    return Region{gref, view.bufferOffset(), true};
}

void
GrantPool::evictRegistryIfNeeded()
{
    std::size_t cap = sim::tuning().frontendRegistryCap;
    xen::GrantTable &gt = boot_.domain().grantTable();
    // Scan from the cold end, revoking fully idle entries: no
    // reference besides ours and the grant table's (an enqueued
    // request the backend has not mapped yet still holds the fragment
    // view, so in-flight buffers never qualify) and no backend mapping
    // (revoke-while-mapped is a checker violation). Neither test has
    // a side effect; the refcount goes first because it rejects most
    // entries without a grant-table lookup.
    for (std::size_t i = 0; i < lru_.size() && lru_.size() >= cap;) {
        const Registered &r = lru_[i];
        if (r.whole.buffer().use_count() > 2 || gt.mapCountOf(r.gref) > 0) {
            i++;
            continue;
        }
        if (Status st = gt.endAccess(r.gref); !st.ok()) {
            warn("grant pool: evict endAccess: %s",
                 st.error().message.c_str());
            i++;
            continue;
        }
        regions_.erase(r.whole.buffer().get());
        lru_.erase(lru_.begin() + long(i));
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
        if (gt.mapCount(p.grant) > 0)
            continue; // backend never disconnected; releaseAll handles it
        if (Status st = gt.endAccess(p.grant.ref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    for (const auto &[buf, gref] : regions_) {
        if (gt.mapCountOf(gref) > 0)
            continue;
        if (Status st = gt.endAccess(gref); !st.ok())
            warn("grant pool: drain endAccess: %s",
                 st.error().message.c_str());
    }
    pages_.clear();
    page_index_.clear();
    regions_.clear();
    lru_.clear();
}

} // namespace mirage::drivers
