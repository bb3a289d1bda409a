#include "runtime/gc_heap.h"

#include "base/logging.h"
#include "check/check.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "trace/profile.h"

namespace mirage::rt {

GcHeap::Stats::Stats(trace::MetricsRegistry *m)
    : allocations(trace::total(m, "gc.allocations")),
      bytesAllocated(trace::total(m, "gc.bytes_allocated")),
      minorCollections(trace::total(m, "gc.minor_collections")),
      majorMarks(trace::total(m, "gc.major_marks")),
      promotedBytes(trace::total(m, "gc.promoted_bytes")),
      growEvents(trace::total(m, "gc.grow_events"))
{
}

GcHeap::GcHeap(sim::Cpu &cpu, pvboot::MemoryBackend backend,
               std::size_t minor_bytes)
    : cpu_(cpu), backend_(std::move(backend)), minor_bytes_(minor_bytes),
      stats_(cpu.engine().metrics())
{
    if (auto *m = cpu_.engine().metrics()) {
        h_minor_pause_ns_ = &m->histogram("gc.minor_pause_ns");
        h_major_pause_ns_ = &m->histogram("gc.major_pause_ns");
    }
}

GcHeap::~GcHeap()
{
    if (check::Checker *ck = checker())
        ck->gcHeapShutdown(this, liveCells(), stats_.liveBytes);
}

check::Checker *
GcHeap::checker() const
{
    check::Checker *ck = cpu_.engine().checker();
    return (ck && ck->enabled()) ? ck : nullptr;
}

std::size_t
GcHeap::liveCells() const
{
    std::size_t n = 0;
    for (const Cell &c : cells_)
        if (c.live)
            n++;
    return n;
}

double
GcHeap::scanFactor() const
{
    return backend_.contiguous() ? 1.0
                                 : sim::costs().chunkedHeapGcFactor;
}

CellRef
GcHeap::alloc(u32 bytes)
{
    CHECK_GT(bytes, 0u);
    if (minor_used_ + bytes > minor_bytes_)
        collectMinor();

    check::Checker *ck = checker();
    CellRef ref;
    if (!ck && !free_cells_.empty()) {
        // Recycling is suspended while a checker is enabled so every
        // CellRef stays unique and stale handles are caught exactly.
        ref = free_cells_.back();
        free_cells_.pop_back();
        cells_[ref] = Cell{bytes, true, false};
    } else {
        ref = CellRef(cells_.size());
        cells_.push_back(Cell{bytes, true, false});
    }
    if (ck)
        ck->gcAlloc(this, ref);
    minor_set_.push_back(ref);
    minor_used_ += bytes;
    stats_.allocations.inc();
    stats_.bytesAllocated.inc(bytes);
    stats_.liveBytes += bytes;
    stats_.peakLiveBytes = std::max(stats_.peakLiveBytes,
                                    stats_.liveBytes);
    cpu_.charge(sim::costs().gcAlloc, "gc.alloc", trace::Cat::Runtime);
    return ref;
}

void
GcHeap::release(CellRef ref)
{
    if (check::Checker *ck = checker()) {
        // The shadow verdict comes first: in Mode::Count a bad release
        // must not touch (or crash on) heap state.
        if (!ck->gcRelease(this, ref))
            return;
    }
    CHECK_LT(std::size_t(ref), cells_.size());
    Cell &c = cells_[ref];
    if (!c.live)
        panic("GcHeap::release of dead cell %u", ref);
    c.live = false;
    stats_.liveBytes -= c.bytes;
    if (c.inMajor) {
        live_major_bytes_ -= c.bytes;
        // Major cells are recycled at major marks; minor cells when
        // their minor set is collected.
        free_cells_.push_back(ref);
    }
}

void
GcHeap::growMajor(u64 needed_bytes)
{
    if (major_used_ + needed_bytes <= stats_.majorHeapBytes)
        return;
    u64 deficit = major_used_ + needed_bytes - stats_.majorHeapBytes;
    // Grow in superpage multiples regardless of backend; the backend
    // decides what that growth costs.
    u64 grow = (deficit + superpageSize - 1) / superpageSize *
               superpageSize;
    cpu_.charge(backend_.growCost(std::size_t(grow)), "gc.grow",
                trace::Cat::Runtime);
    cpu_.charge(sim::costs().zero(std::size_t(grow)), "gc.zero",
                trace::Cat::Runtime);
    stats_.majorHeapBytes += grow;
    stats_.growEvents.inc();
}

void
GcHeap::collectMinor()
{
    const auto &c = sim::costs();
    trace::Profiler *prof = cpu_.engine().profiler();
    trace::DomainStats *dstats = cpu_.domainStats();
    trace::ProfScope pscope(prof, "rt/gc");
    stats_.minorCollections.inc();

    // Walk the minor set: survivors promote, garbage is reclaimed.
    u64 promoted = 0;
    for (CellRef ref : minor_set_) {
        Cell &cell = cells_[ref];
        if (cell.inMajor)
            continue; // released-then-recycled slot; already counted
        if (cell.live) {
            cell.inMajor = true;
            promoted += cell.bytes;
        } else {
            free_cells_.push_back(ref);
        }
    }
    minor_set_.clear();

    // Scan cost covers the whole minor region; promotion copies
    // survivors into the major heap.
    double ns = c.gcPerLiveByteNs * double(promoted) * scanFactor();
    Duration pause = c.gcMinorFixed + Duration(i64(ns));
    cpu_.charge(pause, "gc.minor", trace::Cat::Runtime);
    trace::observe(h_minor_pause_ns_, u64(pause.ns()));
    if (dstats) {
        dstats->gc_minor_pause_ns.record(u64(pause.ns()));
        dstats->gc_promoted_bytes.inc(promoted);
    }
    if (prof)
        prof->checkGcPause(u64(pause.ns()), "minor", cpu_.name());

    growMajor(promoted);
    major_used_ += promoted;
    live_major_bytes_ += promoted;
    stats_.promotedBytes.inc(promoted);
    minor_used_ = 0;

    // Periodic incremental major mark (the "regular compaction and
    // scanning" Fig 7a attributes the xen/linux gap to).
    if (++minors_since_major_ >= c.gcMajorMarkInterval) {
        minors_since_major_ = 0;
        stats_.majorMarks.inc();
        double mark_ns = c.gcMajorMarkPerByteNs *
                         double(live_major_bytes_) * scanFactor();
        cpu_.charge(Duration(i64(mark_ns)), "gc.major_mark",
                    trace::Cat::Runtime);
        trace::observe(h_major_pause_ns_, u64(mark_ns));
        if (dstats) {
            dstats->gc_major_pause_ns.record(u64(mark_ns));
            dstats->gc_live_after_major_bytes.set(live_major_bytes_);
        }
        if (prof)
            prof->checkGcPause(u64(mark_ns), "major", cpu_.name());
        // Sweeping compacts dead major space for reuse.
        major_used_ = live_major_bytes_;
    }
}

} // namespace mirage::rt
