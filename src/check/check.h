/**
 * @file
 * Checker — deterministic invariant checking for the simulated OS (a
 * "TSan for the unikernel"): shadow-state checkers for the
 * protocol-bearing subsystems, attached to sim::Engine exactly like
 * trace::TraceRecorder.
 *
 * The paper's safety argument (§3, §6) is that a sealed single-address
 * -space appliance can be trusted because the toolchain enforces the
 * invariants a conventional OS enforces at privilege boundaries. The
 * Checker is that enforcement made executable: each subsystem reports
 * its protocol transitions through hooks, the Checker tracks what the
 * protocol *should* allow in independent shadow state, and any
 * divergence is a violation:
 *
 *  - grant tables: use-after-revoke, unmap-without-map, revoke while
 *    mapped, and mappings leaked at domain teardown;
 *  - shared rings: producer indices overrunning the ring size, moving
 *    backwards, or being modified outside the protocol (a scribble on
 *    the shared page), and responses published beyond consumed
 *    requests;
 *  - GC handles: double-release and release of never-allocated
 *    CellRefs (the heap poisons freed handles while a checker is
 *    enabled so stale refs cannot alias recycled cells), plus a
 *    live-cell leak report at heap shutdown;
 *  - event channels: notify/close on unbound or already-closed ports;
 *  - network offload: a csum-blank tx frame must leave netback with a
 *    valid TCP checksum, and an aborted tx chain must return its
 *    grant-pool leases (reported by the instrumented datapath via
 *    violation() directly).
 *
 * Cost model: a detached or disabled checker costs the instrumented
 * code one pointer test and a predictable branch, the same contract as
 * the trace layer. Violations are reported either fatally via panic()
 * (Mode::Fatal, the default — for tests) or counted and mirrored into
 * an attached MetricsRegistry (Mode::Count — for benches and long
 * runs).
 *
 * Enable the checker *before* constructing the appliance and keep it
 * enabled: shadow state is built from the hooks, so transitions that
 * happen while the checker is disabled are invisible to it and later
 * operations on that state will be misreported.
 */

#ifndef MIRAGE_CHECK_CHECK_H
#define MIRAGE_CHECK_CHECK_H

#include <array>
#include <atomic>
#include <functional>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/types.h"

namespace mirage::trace {
class MetricsRegistry;
class Counter;
} // namespace mirage::trace

namespace mirage::check {

/** Protocol family a violation belongs to. */
enum class Subsystem : u8 { Grant, Ring, Gc, Event, Net };

constexpr std::size_t subsystemCount = 5;

const char *subsystemName(Subsystem s);

class Checker
{
  public:
    enum class Mode {
        Fatal, //!< panic() on the first violation (tests)
        Count  //!< count, warn and keep going (benches)
    };

    explicit Checker(Mode mode = Mode::Fatal) : mode_(mode) {}

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    Mode mode() const { return mode_; }
    void setMode(Mode m) { mode_ = m; }

    /**
     * Mirror violation counts into `check.violations`,
     * `check.<subsystem>.violations` and `check.gc.leaked_cells`.
     */
    void attachMetrics(trace::MetricsRegistry &reg);

    u64 violations() const
    {
        return total_.load(std::memory_order_relaxed);
    }
    u64 violations(Subsystem s) const
    {
        return per_[std::size_t(s)].load(std::memory_order_relaxed);
    }
    std::string lastViolation() const
    {
        std::lock_guard<std::mutex> lk(last_mu_);
        return last_;
    }

    /** One line per subsystem with a violation count; "" when clean. */
    std::string report() const;

    /**
     * Record one violation. Panics in Mode::Fatal; in Mode::Count it
     * bumps counters and warns. Subsystem hooks below funnel through
     * here; instrumented code may also call it directly.
     */
    void violation(Subsystem s, const char *rule, const std::string &detail);

    /**
     * Hook run on every violation, after counting but before the
     * panic/warn (so it fires even in Mode::Fatal). The flight
     * recorder uses it to dump the trace tail. Empty function clears.
     */
    void setViolationHook(std::function<void()> hook)
    {
        violation_hook_ = std::move(hook);
    }

    // ---- Grant-table hooks (ids are plain integers so the checker
    // ---- does not depend on the hypervisor layer) --------------------
    void grantCreated(u32 owner, u32 ref, u32 peer);
    /** @p table_ok is the grant table's own verdict, cross-checked. */
    void grantEndAccess(u32 owner, u32 ref, bool table_ok);
    void grantMap(u32 owner, u32 ref, u32 peer, bool table_ok);
    void grantUnmap(u32 owner, u32 ref, u32 peer, bool table_ok);

    /**
     * Domain @p dom is tearing down: every grant it still has mapped
     * by a peer, and every mapping it still holds on a peer's grant,
     * is reported as a leak. Its shadow entries are then dropped.
     */
    void domainTeardown(u32 dom);

    /** Grants currently tracked as mapped (all domains). */
    std::size_t shadowMappedGrants() const;

    // ---- Shared-ring hooks -------------------------------------------
    /**
     * Register (or re-find) the shadow for the ring on @p page. Both
     * ends of a ring attach to the same shadow, keyed by the shared
     * page. Counters are snapshot from the header at first attach.
     */
    u32 ringAttach(const void *page, const char *name, u32 slots,
                   u32 req_prod, u32 rsp_prod);
    void ringStartRequest(u32 ring, u32 new_prod_pvt, u32 rsp_cons);
    void ringPublishRequests(u32 ring, u32 old_prod, u32 new_prod);
    void ringConsumeRequest(u32 ring, u32 cons, u32 prod);
    void ringStartResponse(u32 ring, u32 new_rsp_pvt, u32 req_cons);
    void ringPublishResponses(u32 ring, u32 old_prod, u32 new_prod);
    void ringConsumeResponse(u32 ring, u32 cons, u32 prod);
    /**
     * The frontend saw rsp_prod @p prod beyond its requests issued
     * (@p req_prod_pvt) and refused the excess: each refused response
     * is counted once, as `unsolicited_response`.
     */
    void ringRefuseResponses(u32 ring, u32 prod, u32 req_prod_pvt);
    /**
     * The backend refused req_prod @p prod, published past the ring
     * (request consumer at @p cons): counted once per index published,
     * as `req_prod_overrun`.
     */
    void ringRefuseRequests(u32 ring, u32 prod, u32 cons);

    // ---- GC handle hooks ---------------------------------------------
    void gcAlloc(const void *heap, u32 ref);
    /**
     * Validate a release against the shadow. @return false when the
     * release is a violation (double-release or never-allocated) and
     * the heap must not touch the cell.
     */
    bool gcRelease(const void *heap, u32 ref);
    /** Leak report, not a violation: live cells at heap destruction. */
    void gcHeapShutdown(const void *heap, u64 live_cells, u64 live_bytes);
    u64 gcLeakedCells() const
    {
        return gc_leaked_cells_.load(std::memory_order_relaxed);
    }
    u64 gcLeakedBytes() const
    {
        return gc_leaked_bytes_.load(std::memory_order_relaxed);
    }

  private:
    struct GrantShadow
    {
        u32 peer;
        u32 mapCount = 0;
    };

    /**
     * One domain's side of the grant protocol, indexed so its teardown
     * touches only its own grants and mappings.
     */
    struct DomainShadow
    {
        std::unordered_map<u32, GrantShadow> grants; //!< live refs issued
        //! Highest ref issued. GrantTable hands out refs 1, 2, … from a
        //! counter and never reuses one, so a ref at or below this mark
        //! that is not in `grants` was issued and has been revoked: O(1)
        //! memory where a set of revoked refs grows with every revoke.
        u32 max_ref = 0;
        //! grantKey()s of peers' grants this domain holds mapped
        std::unordered_set<u64> mapped;
    };

    struct RingShadow
    {
        std::string name;
        u32 slots;
        u32 reqProd;
        u32 rspProd;
        u32 reqCons;
        u32 rspCons;
        u32 rspRefused; //!< responses below this index already refused
        u32 reqRefused; //!< the runaway req_prod last refused
    };

    struct HeapShadow
    {
        // 0 = never allocated, 1 = live, 2 = released (poisoned)
        std::vector<u8> state;
    };

    static u64 grantKey(u32 owner, u32 ref)
    {
        return (u64(owner) << 32) | ref;
    }

    /** The live shadow of @p owner's @p ref, or null. Holds mu_. */
    GrantShadow *findGrant(u32 owner, u32 ref);
    /** Whether @p owner revoked @p ref (and has not torn down), given
     *  that @p ref is not live: it is at or below the issued mark. */
    bool wasRevoked(u32 owner, u32 ref) const;
    /** Move @p g's mapping count to @p n, keeping `mapped` in step. */
    void setMapCount(u32 owner, u32 ref, GrantShadow &g, u32 n);

    bool enabled_ = false;
    Mode mode_;
    std::atomic<u64> total_{0};
    std::array<std::atomic<u64>, subsystemCount> per_{};
    mutable std::mutex last_mu_; //!< guards last_ only
    std::string last_;
    std::function<void()> violation_hook_;

    // Guards the shadow state below; protocol hooks arrive from every
    // shard. violation() takes only last_mu_, so hooks may report
    // while holding mu_.
    mutable std::mutex mu_;
    std::unordered_map<u32, DomainShadow> doms_;
    std::unordered_map<const void *, u32> ring_ids_;
    std::vector<RingShadow> rings_;
    std::unordered_map<const void *, HeapShadow> heaps_;
    std::atomic<u64> gc_leaked_cells_{0};
    std::atomic<u64> gc_leaked_bytes_{0};

    trace::Counter *c_total_ = nullptr;
    std::array<trace::Counter *, subsystemCount> c_per_{};
    trace::Counter *c_gc_leaked_ = nullptr;
};

} // namespace mirage::check

#endif // MIRAGE_CHECK_CHECK_H
