#include "pvboot/pvboot.h"

#include "base/logging.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "trace/boot.h"

namespace mirage::pvboot {

PVBoot::PVBoot(xen::Domain &dom, LayoutSpec spec)
    : dom_(dom), spec_(spec), slab_(256), io_pages_(spec.ioPages)
{
    auto updates = buildLayout(dom_.pageTables(), spec_);
    if (!updates.ok())
        fatal("PVBoot: layout construction failed: %s",
              updates.error().message.c_str());
    layout_updates_ = updates.value();
    // Note: the CPU time of start-of-day PT construction is part of
    // the toolstack's guest-init cost model (Figs 5-6); charging it
    // again here would double count, so only the update count is kept.
    if (trace::BootTracker *boots = engine().boots())
        boots->notePhaseOps(boots->current(), "layout", layout_updates_);
}

} // namespace mirage::pvboot
