/**
 * @file
 * LayerTrace — the one way model code records tracks and flow stages.
 *
 * Each instrumented layer (a vCPU, a domain's poll loop, netif, blkif,
 * netback, blkback, TCP, HTTP, DNS) owns one handle on its engine's
 * trace::Telemetry bundle. The handle interns the layer's track,
 * `<owner><suffix>` (e.g. "web0" + "/tcp"), on its first use while the
 * recorder is on, so no string is built while it is off and track ids
 * follow first traced use. It also wraps the FlowTracker calls, so a
 * stage is one call: every call is a no-op when the engine carries no
 * bundle or the flow id is 0.
 */

#ifndef MIRAGE_TRACE_LAYER_H
#define MIRAGE_TRACE_LAYER_H

#include <string>
#include <utility>

#include "trace/telemetry.h"

namespace mirage::trace {

class LayerTrace
{
  public:
    LayerTrace() = default;
    /**
     * @param t the engine's bundle (null: every call is a no-op)
     * @param owner names the track with @p suffix; borrowed, it must
     *        outlive the handle
     */
    LayerTrace(Telemetry *t, const std::string &owner,
               const char *suffix = "")
        : t_(t), owner_(&owner), suffix_(suffix)
    {
    }

    /** The recorder while it records, else null; guard a span's or an
     *  instant's arguments with it. */
    TraceRecorder *recorder() const
    {
        return t_ && t_->tracer.enabled() ? &t_->tracer : nullptr;
    }

    /** This layer's track; 0, and nothing interned, while the recorder
     *  is off. */
    u32 track()
    {
        if (track_ == 0 && recorder())
            track_ = t_->tracer.track(*owner_ + suffix_);
        return track_;
    }

    /** Open a new flow of @p kind on this layer's track and make it
     *  current; 0 without a bundle. */
    FlowId begin(const char *kind, TimePoint ts, std::string detail,
                 std::string domain)
    {
        return t_ ? t_->flows.begin(kind, ts, track(), std::move(detail),
                                    std::move(domain))
                  : 0;
    }
    /** Request the end of flow @p id (FlowTracker::end). */
    void end(FlowId id, TimePoint ts)
    {
        if (t_ && id)
            t_->flows.end(id, ts, track());
    }

    /** Open @p stage of the ambient flow; returns that flow, 0 when
     *  there is none. */
    FlowId stageBegin(const char *stage, TimePoint ts)
    {
        FlowId id = t_ ? t_->flows.current() : 0;
        stageBegin(id, stage, ts);
        return id;
    }
    /** Open @p stage of flow @p id (an id stamped in a ring slot). */
    void stageBegin(FlowId id, const char *stage, TimePoint ts)
    {
        if (t_ && id)
            t_->flows.stageBegin(id, stage, ts, track());
    }
    /** Close @p stage of flow @p id at @p ts. */
    void stageEnd(FlowId id, const char *stage, TimePoint ts)
    {
        if (t_ && id)
            t_->flows.stageEnd(id, stage, ts, track());
    }

    /** Make @p id the ambient flow for the scope's lifetime; no-op for
     *  0, which leaves the ambient flow as it is. */
    FlowScope enter(FlowId id) const
    {
        return FlowScope(t_ && id ? &t_->flows : nullptr, id);
    }

  private:
    Telemetry *t_ = nullptr;
    const std::string *owner_ = nullptr;
    const char *suffix_ = "";
    u32 track_ = 0;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_LAYER_H
