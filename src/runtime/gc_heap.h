/**
 * @file
 * The two-generation managed heap (§3.3, Fig 2): a 2 MB minor heap for
 * short-lived values and a major heap grown through a MemoryBackend.
 *
 * This is a *generational accounting collector*: object lifetimes are
 * tracked exactly (every allocation returns a cell handle; release
 * marks it dead), minor collections genuinely walk the current minor
 * set and promote survivors, and every structural cost — scan bytes,
 * promotion, heap growth, chunk-table overhead for non-contiguous
 * heaps — is charged to the owning vCPU from the calibration table.
 * Payload bytes are not physically moved; the comparative experiments
 * (Fig 7) measure structure, which is preserved exactly.
 */

#ifndef MIRAGE_RUNTIME_GC_HEAP_H
#define MIRAGE_RUNTIME_GC_HEAP_H

#include <vector>

#include "base/types.h"
#include "pvboot/extent.h"
#include "sim/cpu.h"
#include "trace/metrics.h"

namespace mirage::check {
class Checker;
} // namespace mirage::check

namespace mirage::rt {

/** Handle to one allocated cell. */
using CellRef = u32;

class GcHeap
{
  public:
    struct Stats
    {
        /** Binds each count to its `gc.*` total in @p m (null: none). */
        explicit Stats(trace::MetricsRegistry *m);

        trace::Counter allocations;
        trace::Counter bytesAllocated;
        trace::Counter minorCollections;
        trace::Counter majorMarks;
        trace::Counter promotedBytes;
        trace::Counter growEvents;
        // Gauges: this heap's alone, no registry series.
        u64 liveBytes = 0;
        u64 peakLiveBytes = 0;
        u64 majorHeapBytes = 0; //!< current major heap size
    };

    /**
     * @param cpu vCPU charged for all GC work
     * @param backend heap-growth model (Fig 7a configurations)
     * @param minor_bytes minor heap size; the paper's runtime uses 2 MB
     */
    GcHeap(sim::Cpu &cpu, pvboot::MemoryBackend backend,
           std::size_t minor_bytes = superpageSize);

    /** Reports still-live cells to an enabled checker (leak report). */
    ~GcHeap();

    /** Allocate @p bytes on the minor heap. May trigger collection. */
    CellRef alloc(u32 bytes);

    /**
     * Mark a cell dead; its bytes stop being scanned/promoted.
     *
     * While an enabled check::Checker is attached to the engine, a
     * double release or a release of a never-allocated ref is reported
     * as a violation instead of corrupting the heap; the heap also
     * stops recycling freed cell slots (ASan-style poisoning) so a
     * stale CellRef can never alias a newer allocation.
     */
    void release(CellRef ref);

    /** Force a minor collection (tests / shutdown). */
    void collectMinor();

    /** Cells currently live (exact; walks the cell table). */
    std::size_t liveCells() const;

    const Stats &stats() const { return stats_; }
    const pvboot::MemoryBackend &backend() const { return backend_; }

  private:
    check::Checker *checker() const;
    struct Cell
    {
        u32 bytes;
        bool live;
        bool inMajor;
    };

    void growMajor(u64 needed_bytes);
    double scanFactor() const;

    sim::Cpu &cpu_;
    pvboot::MemoryBackend backend_;
    std::size_t minor_bytes_;
    std::size_t minor_used_ = 0;
    u64 live_major_bytes_ = 0;
    u64 major_used_ = 0;
    u32 minors_since_major_ = 0;

    std::vector<Cell> cells_;
    std::vector<CellRef> free_cells_;
    std::vector<CellRef> minor_set_; //!< cells allocated since last GC
    Stats stats_;

    // Registry pause histograms (null without telemetry).
    trace::Histogram *h_minor_pause_ns_ = nullptr;
    trace::Histogram *h_major_pause_ns_ = nullptr;
};

} // namespace mirage::rt

#endif // MIRAGE_RUNTIME_GC_HEAP_H
