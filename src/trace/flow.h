/**
 * @file
 * FlowTracker — causal, request-scoped tracing on top of TraceRecorder.
 *
 * A *flow* is one inbound unit of work (an HTTP request, a DNS query, a
 * block request) followed from arrival to completion across every layer
 * it crosses: guest TCP, the netfront/netback or blkfront/blkback
 * rings, dom0 backends, and back out. Each flow gets a FlowId; the
 * layers it traverses open and close named *stages* against that id,
 * and the tracker emits Chrome nestable-async events ('b'/'e' sharing
 * the flow's id) so Perfetto draws the whole request as one arrowed
 * flow spanning all its tracks. Model code opens and closes stages
 * through its layer's trace::LayerTrace (trace/layer.h).
 *
 * Propagation is ambient: sim::Engine captures `current()` when work is
 * scheduled and restores it around dispatch, so a flow follows its own
 * callbacks through promises, timers and event-channel notifications
 * without any per-call plumbing. Where work changes address space —
 * ring slots crossing the frontend/backend boundary, TCP payload
 * riding a later segment — the id is stamped into the in-flight
 * structure (slot word, TxChunk) and re-established on the far side.
 *
 * When a flow finishes, the critical-path analyzer folds its stage
 * intervals into per-stage durations (overlapping opens of the same
 * stage are merged by union, so two interleaved disk ops don't double
 * count) and feeds the registry of its trace::Telemetry bundle:
 *
 *   flow.<kind>.total_ns            end-to-end latency
 *   flow.<kind>.stage.<stage>_ns    time attributed to each stage
 *   flow.<kind>.completed           counter
 *
 * It then scores the flow against its SLO target and folds it into
 * the hub's per-domain aggregate.
 *
 * end() is deferred-final: if stages are still open (e.g. tcp_tx ends
 * only when the final ACK lands), the flow finalises when the last one
 * closes, so total_ns covers true completion.
 */

#ifndef MIRAGE_TRACE_FLOW_H
#define MIRAGE_TRACE_FLOW_H

#include <atomic>
#include <deque>
#include <functional>
#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/time.h"
#include "base/types.h"
#include "trace/metrics.h"
#include "trace/scope.h"

namespace mirage::trace {

struct Telemetry;

/** Identifies one tracked request; 0 means "no flow". */
using FlowId = u64;

class FlowTracker
{
  public:
    struct Stage
    {
        std::string name;
        u64 total_ns = 0;   //!< merged (union) busy time
        u64 count = 0;      //!< times the stage was entered
        u32 open = 0;       //!< currently-open begins (nesting depth)
        i64 open_start = 0; //!< ts of the transition 0 -> 1
    };

    struct Flow
    {
        FlowId id = 0;
        const char *kind = "";   //!< "http", "dns", … (static string)
        std::string detail;      //!< e.g. "GET /timeline/alice"
        std::string domain;      //!< serving domain ("" when untagged)
        i64 start_ns = 0;
        i64 end_ns = 0;
        bool end_requested = false;
        bool failed = false; //!< server-reported error (5xx, SERVFAIL)
        bool done = false;
        u32 open_total = 0; //!< open stage-begins across all stages
        std::vector<Stage> stages;
    };

    explicit FlowTracker(Telemetry &t) : t_(t) {}

    // ---- Flow lifecycle ---------------------------------------------
    /**
     * Open a new flow of @p kind and make it current. Returns its
     * nonzero id (all other entry points ignore id 0).
     */
    FlowId begin(const char *kind, TimePoint ts, u32 tid = 0,
                 std::string detail = {}, std::string domain = {});

    /**
     * Mark the flow as failed (the server answered with an error). The
     * flow still completes and records latency; the SLO layer counts it
     * against the availability budget.
     */
    void markFailed(FlowId id);

    /**
     * Request completion. Finalises immediately when no stage is open;
     * otherwise the flow finalises when its last open stage closes.
     */
    void end(FlowId id, TimePoint ts, u32 tid = 0);

    // ---- Stage accounting -------------------------------------------
    /** Enter @p stage of flow @p id (static-string stage name). */
    void stageBegin(FlowId id, const char *stage, TimePoint ts,
                    u32 tid = 0);
    /** Leave @p stage; closes the flow if end() already ran. */
    void stageEnd(FlowId id, const char *stage, TimePoint ts,
                  u32 tid = 0);

    // ---- Ambient propagation (used by sim::Engine) ------------------
    // The ambient flow is thread-local: each simulation shard worker
    // carries its own dispatch context, restored by FlowScope.
    FlowId current() const { return current_tls_; }
    void setCurrent(FlowId id) { current_tls_ = id; }

    /**
     * Install a deterministic id source (e.g. the engine's causal
     * token derivation) so flow ids are a pure function of the seed at
     * any shard count. Falls back to a sequential counter when unset
     * or when the source yields 0.
     */
    void setIdSource(std::function<FlowId()> source)
    {
        id_source_ = std::move(source);
    }

    // ---- Introspection (watchdog hooks read these) -----------------
    /** Flows finalized so far: the sum of the `flow.<kind>.completed`
     *  counters. */
    u64 completed() const;
    /** Lock-free. */
    std::size_t liveCount() const
    {
        return live_count_.load(std::memory_order_relaxed);
    }

    /** Completed-flow history retained for recentJson(). */
    void setRecentCapacity(std::size_t n);
    const std::deque<Flow> &recent() const { return recent_; }

    /**
     * JSON array of the most recent completed flows (newest first):
     * id, kind, detail, start/total ns and per-stage durations. Serves
     * the appliance's `/flows` endpoint.
     */
    std::string recentJson() const;

    /** Runs on every begin(); the stall watchdog re-arms off it. */
    void setActivityHook(std::function<void()> hook)
    {
        activity_hook_ = std::move(hook);
    }

  private:
    /** One kind's registry series, resolved on its first completion
     *  (each stage's on the first completion that has it). */
    struct Series
    {
        Counter *completed;
        Histogram *total_ns;
        std::map<std::string, Histogram *> stages;
    };

    Flow *find(FlowId id);
    static Stage *stageOf(Flow &f, const char *name);
    /** Remove live flow @p id for finalize(). */
    Flow take(FlowId id);
    void finalize(Flow &f, u32 tid);
    /** Record finished flow @p f into its kind's series. */
    void recordSeries(const Flow &f);

    Telemetry &t_;
    std::function<FlowId()> id_source_;
    FlowId next_id_ = 1;
    std::atomic<std::size_t> live_count_{0};
    // Guards live_/recent_/series_/next_id_; shard workers begin and
    // finalize flows concurrently. live_count_ stays lock-free so the
    // stall watchdog's hooks can read it from any shard.
    mutable std::mutex mu_;
    std::map<std::string, Series, std::less<>> series_;
    std::unordered_map<FlowId, Flow> live_;
    static constexpr std::size_t liveCapacity = 1024;
    std::deque<Flow> recent_;
    std::size_t recent_capacity_ = 128;
    std::function<void()> activity_hook_;

    static thread_local FlowId current_tls_;
};

/** RAII save/restore of the ambient flow id (trace/scope.h). */
using FlowScope = AmbientScope<FlowTracker>;

} // namespace mirage::trace

#endif // MIRAGE_TRACE_FLOW_H
