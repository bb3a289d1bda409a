/**
 * @file
 * BootTracker — phase-attributed cold-boot tracing (the Jitsu
 * prerequisite: before a fleet can gate on "p99 latency including cold
 * boots", a cold boot must decompose into actionable parts).
 *
 * One *boot* is the interval from the toolstack accepting a BootSpec to
 * the domain serving its first request. The bring-up path reports named
 * phases against it:
 *
 *   toolstack       dispatch / queueing in the builder
 *   build           hypervisor domain construction
 *   layout          start-of-day page-table construction (PVBoot)
 *   page_setup      slab / I/O page pool / extent reservation
 *   device_connect  netif + blkif ring, grant and evtchn handshakes
 *   stack_up        network stack bring-up to service-ready
 *   first_request   service-ready to the first completed request
 *
 * (Linux-model guests report coarser phases: kernel_boot, services,
 * app_start.) Each phase lands as a nested trace span under the boot's
 * async id — Perfetto shows every boot as one bar decomposed into
 * phases — and as a `boot.<phase>_ns` histogram in the bundle's
 * registry (the one store the rollup accessors read), so a fleet's
 * cold-boot p99 splits by phase. Structural code that runs in zero virtual time
 * (the PVBoot constructor, driver connects) annotates the *current*
 * boot with operation counts instead, via the ambient id.
 *
 * The attribution invariant mirrors the profiler's: the recorded phases
 * of a finished boot must sum to >= 95 % of its total; the boot benches
 * gate on it.
 */

#ifndef MIRAGE_TRACE_BOOT_H
#define MIRAGE_TRACE_BOOT_H

#include <atomic>
#include <deque>
#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "trace/hdr.h"
#include "trace/scope.h"

namespace mirage::trace {

struct Telemetry;

/** Identifies one tracked boot; 0 means "no boot". */
using BootId = u64;

class BootTracker
{
  public:
    struct Phase
    {
        std::string name;
        i64 start_ns = 0;
        i64 dur_ns = 0;
        u64 ops = 0; //!< structural op count (PT updates, grants, …)
    };

    struct Record
    {
        BootId id = 0;
        std::string domain;
        i64 submit_ns = 0;
        i64 ready_ns = -1;         //!< service-ready (boot "done")
        i64 first_request_ns = -1; //!< first completed request
        bool done = false;
        std::vector<Phase> phases;

        i64
        totalNs() const
        {
            return (ready_ns >= 0 ? ready_ns : submit_ns) - submit_ns;
        }
    };

    explicit BootTracker(Telemetry &t) : t_(t) {}

    // ---- Boot lifecycle ---------------------------------------------
    /**
     * Open a boot for @p domain, submitted at @p ts, and make it
     * current.
     */
    BootId begin(const std::string &domain, TimePoint ts);

    /**
     * Record phase [@p start, @p end) of boot @p id. Phases may be
     * reported out of order and for future timestamps (the toolstack
     * knows its cost schedule up front); spans nest under the boot's
     * async id.
     */
    void phase(BootId id, const char *name, TimePoint start,
               TimePoint end, u64 ops = 0);

    /** Attach @p ops structural operations to @p name of boot @p id
     *  (creating a zero-duration phase entry when absent). */
    void notePhaseOps(BootId id, const char *name, u64 ops);

    /**
     * The domain is service-ready at @p ts: closes the boot span,
     * records `boot.total_ns` and the per-phase histograms. The record
     * stays addressable until firstRequest() or eviction.
     */
    void ready(BootId id, TimePoint ts);

    /**
     * The named domain completed its first request at @p ts: records
     * the trailing `first_request` phase and `boot.first_request_ns`
     * (submit -> first response). No-op when the domain has no open
     * boot record — instant provisioning paths never see it.
     */
    void firstRequest(const std::string &domain, TimePoint ts);

    // ---- Ambient propagation ----------------------------------------
    /** The boot whose bring-up code is currently executing. */
    BootId current() const { return current_tls_; }
    void setCurrent(BootId id) { current_tls_ = id; }

    // ---- Introspection ----------------------------------------------
    u64 started() const { return started_.load(std::memory_order_relaxed); }
    /** The registry's `boot.completed` counter (0 before the first). */
    u64 completedBoots() const;

    /** Completed + in-flight boots, oldest first (bounded history). */
    const std::deque<Record> &records() const { return records_; }

    /** Copy of the per-phase `boot.<phase>_ns` histograms, keyed by
     *  phase. */
    std::map<std::string, HdrHistogram> phaseHistogramsSnapshot() const;
    /** `boot.total_ns` and `boot.first_request_ns` (empty until the
     *  first boot or first request lands). */
    const HdrHistogram &totalHistogram() const
    {
        return registered("boot.total_ns");
    }
    const HdrHistogram &firstRequestHistogram() const
    {
        return registered("boot.first_request_ns");
    }

    /**
     * JSON array of recorded boots (newest first): domain, submit,
     * total, first_request and per-phase durations + op counts. The
     * `/fleet` endpoint embeds it.
     */
    std::string json() const;

  private:
    Record *findMutable(BootId id);
    const HdrHistogram &registered(const char *name) const;
    u32 bootTrack(const std::string &domain);

    Telemetry &t_;
    BootId next_id_ = 1;
    std::atomic<u64> started_{0};
    // Guards records_/open_by_domain_/next_id_.
    mutable std::mutex mu_;
    std::deque<Record> records_;
    static constexpr std::size_t recordCapacity = 256;
    std::map<std::string, BootId> open_by_domain_;

    static thread_local BootId current_tls_;
};

/** RAII save/restore of the ambient boot id (trace/scope.h). */
using BootScope = AmbientScope<BootTracker>;

} // namespace mirage::trace

#endif // MIRAGE_TRACE_BOOT_H
