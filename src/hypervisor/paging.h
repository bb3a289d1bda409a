/**
 * @file
 * Guest page tables with W^X enforcement and the `seal` hypercall
 * (paper §2.3.3).
 *
 * A unikernel lays out its single address space, then seals it: the
 * hypervisor verifies that no page is both writable and executable and
 * refuses all further page-table modification — except fresh,
 * non-executable I/O mappings, which must not replace existing data,
 * code or guard pages. Code injected after sealing can therefore never
 * become executable.
 */

#ifndef MIRAGE_HYPERVISOR_PAGING_H
#define MIRAGE_HYPERVISOR_PAGING_H

#include <array>
#include <bitset>
#include <cstddef>
#include <map>

#include "base/result.h"
#include "base/types.h"

namespace mirage::xen {

/** Access rights of one mapped page. */
struct PagePerms
{
    bool read = false;
    bool write = false;
    bool exec = false;

    static PagePerms rw() { return {true, true, false}; }
    static PagePerms rx() { return {true, false, true}; }
    static PagePerms ro() { return {true, false, false}; }
    static PagePerms rwx() { return {true, true, true}; }
    static PagePerms none() { return {}; }

    bool operator==(const PagePerms &) const = default;
};

/** Role of a region, used for layout accounting and guard checks. */
enum class PageRole : u8 {
    Text,    //!< executable code
    Data,    //!< static data
    Heap,    //!< GC heaps
    IoPage,  //!< granted/shared I/O pages
    Guard,   //!< unmapped trap page
    Stack,
};

/**
 * One guest's page tables, keyed by virtual page number.
 *
 * Stored like a radix table's last level: 512-entry leaves (one 2 MB
 * superpage of VA each) keyed by `vpn >> 9`. A guest's layout is a few
 * dense regions (Fig 2), so it fills a handful of leaves instead of
 * allocating one tree node per page.
 *
 * Page-table updates are counted per backend flavour by the caller (the
 * cost difference between native and PV updates drives Fig 7a); this
 * class tracks the logical state and the seal policy.
 */
class PageTables
{
  public:
    struct Entry
    {
        PagePerms perms;
        PageRole role;
    };

    /** Map a page. Fails when already mapped or (post-seal) always
     *  unless it is a legal I/O mapping. */
    Status map(u64 vpn, PagePerms perms, PageRole role);

    /** Change permissions of an existing mapping. Fails post-seal. */
    Status protect(u64 vpn, PagePerms perms);

    /** Remove a mapping. Fails post-seal. */
    Status unmap(u64 vpn);

    /**
     * The seal hypercall: verifies W^X over all current mappings and
     * then freezes the tables. Idempotent failure: sealing twice is an
     * error.
     */
    Status seal();

    bool sealed() const { return sealed_; }

    /** Look up a mapping; nullptr when not present. */
    const Entry *lookup(u64 vpn) const;

    /** Whether a fetch from @p vpn may execute. */
    bool canExecute(u64 vpn) const;
    /** Whether a store to @p vpn may proceed. */
    bool canWrite(u64 vpn) const;

    std::size_t mappedPages() const { return mapped_; }
    u64 updatesApplied() const { return updates_; }
    u64 updatesRefused() const { return refused_; }

  private:
    static constexpr unsigned leafBits = 9;
    static constexpr std::size_t leafPages = std::size_t(1) << leafBits;

    struct Leaf
    {
        std::array<Entry, leafPages> entries{};
        std::bitset<leafPages> present;
    };

    bool violatesWx(PagePerms p) const { return p.write && p.exec; }

    /** The present entry for @p vpn, or null. */
    Entry *find(u64 vpn);

    std::map<u64, Leaf> leaves_; //!< vpn >> leafBits → leaf
    std::size_t mapped_ = 0;
    bool sealed_ = false;
    u64 updates_ = 0;
    u64 refused_ = 0;
};

} // namespace mirage::xen

#endif // MIRAGE_HYPERVISOR_PAGING_H
