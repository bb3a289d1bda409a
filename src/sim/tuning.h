/**
 * @file
 * Datapath tuning knobs: the persistent-grant and doorbell-batching
 * switches plus their sizing parameters, in one place so benches can
 * flip them for before/after comparisons. Unlike the cost model (which
 * calibrates how expensive an operation is), these decide which
 * operations the datapath performs at all.
 */

#ifndef MIRAGE_SIM_TUNING_H
#define MIRAGE_SIM_TUNING_H

#include <cstddef>

#include "base/time.h"

namespace mirage::sim {

struct Tuning
{
    /**
     * Frontends recycle (page, gref) pairs through a GrantPool and
     * backends keep gref→page map caches instead of granting/mapping
     * per operation (the Xen persistent-grant protocol).
     */
    bool persistentGrants = true;

    /**
     * Defer and coalesce event-channel doorbells: backends delay
     * response notifies by up to doorbellWindow so closely-spaced
     * completions share one upcall, and netback only arms the rx
     * buffer ring's req_event while it is starved of buffers.
     */
    bool doorbellBatching = true;

    /**
     * TCP hands multi-MSS chains to the driver and the backend
     * segments them at the vif boundary (TSO through the netif ring):
     * the frontend pays its per-packet costs once per chain, dom0
     * pays the per-MSS fixup where the paper's cost model puts it.
     */
    bool tcpSegOffload = true;

    /**
     * Frontends leave the TCP checksum blank (csum_blank slot flag)
     * and the backend fills it during its copy-out, folding the fold
     * into the memory-bound segmentation pass.
     */
    bool csumOffload = true;

    /** Largest TCP payload one offloaded chain may carry. */
    std::size_t tsoMaxBytes = 61440;

    /** Pooled whole pages per frontend device (tier-A pool). */
    std::size_t frontendPoolPages = 64;

    /** Registered long-lived buffers per frontend (tier-B registry). */
    std::size_t frontendRegistryCap = 128;

    /** Persistent mappings a backend caches per frontend (LRU). */
    std::size_t backendMapCacheCap = 256;

    /**
     * Doorbell coalescing window. Kept below the upcall latency so a
     * batched notify adds less delay than one interrupt delivery.
     */
    Duration doorbellWindow = Duration::nanos(900);

    /**
     * Consumer poll cadence while a ring is busy (sim::Poller). Kept at
     * the upcall latency so polled delivery is no slower than a notify
     * — the poll replaces the evtchn_send, not the wakeup delay.
     */
    Duration pollInterval = Duration::nanos(1000);

    /**
     * How long a polled ring may stay quiet before its consumer
     * re-arms the producer's event and goes idle. Sized to outlast a
     * queue-depth-1 device round trip (tens of µs), so a steady stream
     * of single requests keeps the ring in polling mode.
     */
    Duration pollIdle = Duration::micros(100);
};

/**
 * The process-wide tuning table. It is written only before a run
 * (setup, tests, bench sweeps) and read by every shard during one, so
 * sharded runs see one fixed table. Moving it into the engine or the
 * cloud config waits for the next benchmark change (perfbench includes
 * this header).
 */
inline Tuning &
tuning()
{
    static Tuning t;
    return t;
}

} // namespace mirage::sim

#endif // MIRAGE_SIM_TUNING_H
