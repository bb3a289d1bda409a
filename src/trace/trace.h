/**
 * @file
 * TraceRecorder — typed spans and instants on the virtual clock,
 * exportable as Chrome `trace_event` JSON (loadable in chrome://tracing
 * or Perfetto).
 *
 * The recorder lives in the engine's trace::Telemetry bundle;
 * instrumented subsystems reach it through `engine.tracer()` and record
 * only when `enabled()` — a disabled recorder costs one pointer load
 * and a predictable branch, so benches run untraced at full speed.
 *
 * Tracks (Chrome "threads") model the simulation's parallel timelines:
 * track 0 is the event loop, and every instrumented layer interns its
 * own named track on first traced use (trace/layer.h), so one
 * web-appliance boot shows dom0, each guest vCPU, the disk server and
 * the TCP flows side by side on a shared virtual-time axis.
 *
 * Two recording modes:
 *  - unbounded (default): every event is kept until clear();
 *  - flight recorder (setFlightCapacity(n)): a bounded ring that keeps
 *    the most recent n events and counts what it overwrote — cheap
 *    enough to leave enabled in production runs, and dumped on the
 *    first panic / CHECK failure / checker violation so post-mortems
 *    arrive with the last milliseconds of virtual-time history.
 *
 * Besides complete spans ('X') and instants ('i'), the recorder emits
 * Chrome *nestable async* events ('b'/'e'/'n' with an id): events that
 * share one id form a single logical flow across tracks, which
 * Perfetto renders with causal arrows — the substrate of the
 * request-scoped flow layer in trace/flow.h.
 */

#ifndef MIRAGE_TRACE_TRACE_H
#define MIRAGE_TRACE_TRACE_H

#include <map>
// mirage-lint: allow(wall-clock-in-sim)
#include <mutex>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/time.h"
#include "base/types.h"
#include "trace/json.h"

namespace mirage::trace {

/** Subsystem category; becomes the Chrome event `cat` field. */
enum class Cat : u8 {
    Engine,     //!< sim event loop
    Cpu,        //!< generic vCPU work
    Hypervisor, //!< domains, event channels, rings, backends
    Runtime,    //!< GC + thread scheduler
    Net,        //!< TCP/IP stack
    Storage,    //!< block layer
    App,        //!< appliance-level marks
    Flow,       //!< cross-layer request flows (async b/e events)
    Boot,       //!< domain bring-up phase spans (async b/e events)
};

const char *catName(Cat cat);

/** Write @p body to the file at @p path, replacing it. */
Status writeFile(const std::string &path, const std::string &body);

class TraceRecorder
{
  public:
    struct Event
    {
        const char *name; //!< static string (call sites pass literals)
        Cat cat;
        char ph;    //!< 'X' span, 'i' instant, 'b'/'e'/'n' async
        u32 tid;    //!< interned track
        i64 ts_ns;  //!< virtual-time start
        i64 dur_ns; //!< span length (0 for instants)
        u64 id;     //!< async-flow id ('b'/'e'/'n' only; else 0)
        std::string args; //!< jsonObject(...), e.g. {"seq":7}; may be empty
    };

    void enable(bool on = true) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Intern a named track (Chrome tid). Returns a stable nonzero id;
     * repeated calls with the same name return the same id. Track 0 is
     * the engine's event loop. O(log n) via a side index — hot paths
     * intern per event.
     */
    u32 track(const std::string &name);

    /** Record a complete span [start, start+dur). No-op when disabled. */
    void span(Cat cat, const char *name, TimePoint start, Duration dur,
              u32 tid = 0, std::string args = {})
    {
        push({name, cat, 'X', tid, start.ns(), dur.ns(), 0, std::move(args)});
    }

    /** Record a zero-duration instant. No-op when disabled. */
    void instant(Cat cat, const char *name, TimePoint ts, u32 tid = 0,
                 std::string args = {})
    {
        push({name, cat, 'i', tid, ts.ns(), 0, 0, std::move(args)});
    }

    // ---- Nestable async events (one logical flow across tracks) -----
    /** Open an async span of flow @p id on @p tid. */
    void asyncBegin(Cat cat, const char *name, u64 id, TimePoint ts,
                    u32 tid = 0, std::string args = {})
    {
        push({name, cat, 'b', tid, ts.ns(), 0, id, std::move(args)});
    }
    /** Close the matching async span (same cat/name/id). */
    void asyncEnd(Cat cat, const char *name, u64 id, TimePoint ts,
                  u32 tid = 0, std::string args = {})
    {
        push({name, cat, 'e', tid, ts.ns(), 0, id, std::move(args)});
    }
    /** A point event attributed to flow @p id. */
    void asyncInstant(Cat cat, const char *name, u64 id, TimePoint ts,
                      u32 tid = 0, std::string args = {})
    {
        push({name, cat, 'n', tid, ts.ns(), 0, id, std::move(args)});
    }

    /**
     * A counter sample ('C'): @p args carries the series values, e.g.
     * {"net":120,"gc":30} — Perfetto renders each key as a stacked
     * series on one counter track named @p name.
     */
    void counter(Cat cat, const char *name, TimePoint ts,
                 std::string args, u32 tid = 0)
    {
        push({name, cat, 'C', tid, ts.ns(), 0, 0, std::move(args)});
    }

    // ---- Flight-recorder mode ---------------------------------------
    /**
     * Bound the event store to the most recent @p n events (0 restores
     * unbounded recording). Overwritten events are counted in
     * droppedEvents(). Existing events beyond the bound are trimmed to
     * the most recent n.
     */
    void setFlightCapacity(std::size_t n);
    std::size_t flightCapacity() const { return flight_cap_; }

    /** Events overwritten (lost) since the last clear(). */
    u64 droppedEvents() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return dropped_;
    }

    std::size_t eventCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return events_.size();
    }

    /**
     * Raw event store. In flight mode the ring is rotated so events
     * appear oldest-first, same as unbounded mode.
     */
    std::vector<Event> events() const;

    void clear();

    /**
     * Serialise as Chrome trace_event JSON ({"traceEvents": [...]}),
     * events sorted by timestamp, with thread-name metadata for every
     * interned track and a top-level "droppedEvents" count.
     */
    std::string toChromeJson() const;

    /** toChromeJson() to @p path. */
    Status writeChromeJson(const std::string &path) const;

  private:
    void push(Event &&e); //!< no-op while disabled
    std::vector<Event> eventsLocked() const;

    bool enabled_ = false;
    // Serialises the event store and track interning; shard workers
    // record concurrently into one recorder.
    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::size_t flight_cap_ = 0; //!< 0 = unbounded
    std::size_t head_ = 0;       //!< next overwrite slot (ring mode)
    u64 dropped_ = 0;
    std::vector<std::string> tracks_ = {"event-loop"};
    std::map<std::string, u32> track_index_ = {{"event-loop", 0}};
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_TRACE_H
