#include "hypervisor/paging.h"

#include "base/logging.h"

namespace mirage::xen {

PageTables::Entry *
PageTables::find(u64 vpn)
{
    auto it = leaves_.find(vpn >> leafBits);
    if (it == leaves_.end())
        return nullptr;
    std::size_t i = vpn & (leafPages - 1);
    return it->second.present.test(i) ? &it->second.entries[i] : nullptr;
}

Status
PageTables::map(u64 vpn, PagePerms perms, PageRole role)
{
    if (sealed_) {
        // Post-seal, only fresh non-executable I/O mappings are legal
        // (§2.3.3): they must not replace any existing page.
        bool io_ok =
            role == PageRole::IoPage && !perms.exec && !find(vpn);
        if (!io_ok) {
            refused_++;
            return stateError("page-table modification after seal");
        }
    }
    Leaf &leaf = leaves_[vpn >> leafBits];
    std::size_t i = vpn & (leafPages - 1);
    if (leaf.present.test(i)) {
        refused_++;
        return stateError(strprintf("vpn %llu already mapped",
                                    (unsigned long long)vpn));
    }
    leaf.present.set(i);
    leaf.entries[i] = Entry{perms, role};
    mapped_++;
    updates_++;
    return Status::success();
}

Status
PageTables::protect(u64 vpn, PagePerms perms)
{
    if (sealed_) {
        refused_++;
        return stateError("protect after seal");
    }
    Entry *e = find(vpn);
    if (!e) {
        refused_++;
        return notFoundError("protect of unmapped page");
    }
    e->perms = perms;
    updates_++;
    return Status::success();
}

Status
PageTables::unmap(u64 vpn)
{
    if (sealed_) {
        refused_++;
        return stateError("unmap after seal");
    }
    auto it = leaves_.find(vpn >> leafBits);
    std::size_t i = vpn & (leafPages - 1);
    if (it == leaves_.end() || !it->second.present.test(i)) {
        refused_++;
        return notFoundError("unmap of unmapped page");
    }
    it->second.present.reset(i);
    if (it->second.present.none())
        leaves_.erase(it);
    mapped_--;
    updates_++;
    return Status::success();
}

Status
PageTables::seal()
{
    if (sealed_)
        return stateError("domain already sealed");
    // Leaves iterate in key order and entries in index order, so the
    // first violation reported is the lowest offending vpn.
    for (const auto &[key, leaf] : leaves_) {
        for (std::size_t i = 0; i < leafPages; i++) {
            if (leaf.present.test(i) && violatesWx(leaf.entries[i].perms))
                return stateError(strprintf(
                    "seal refused: vpn %llu is writable and executable",
                    (unsigned long long)((key << leafBits) | i)));
        }
    }
    sealed_ = true;
    return Status::success();
}

const PageTables::Entry *
PageTables::lookup(u64 vpn) const
{
    return const_cast<PageTables *>(this)->find(vpn);
}

bool
PageTables::canExecute(u64 vpn) const
{
    const Entry *e = lookup(vpn);
    return e && e->perms.exec;
}

bool
PageTables::canWrite(u64 vpn) const
{
    const Entry *e = lookup(vpn);
    return e && e->perms.write;
}

} // namespace mirage::xen
