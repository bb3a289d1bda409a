/**
 * @file
 * Telemetry — the observability bundle. Each member reaches its
 * siblings through it: a finalized flow feeds its histograms, the SLO
 * tracker and the hub; an SLO burn is a profiler alert; an alert dumps
 * the flight recorder. sim::Engine holds one pointer to it (null: all
 * off).
 *
 * MIRAGE_FLIGHT=<n>, read at construction, keeps the tracer's last n
 * events and dumps them once, to MIRAGE_FLIGHT_PATH (default
 * `flight.json`), on the first panic, alert or dumpFlight() call.
 */

#ifndef MIRAGE_TRACE_TELEMETRY_H
#define MIRAGE_TRACE_TELEMETRY_H

#include <string>

#include "trace/boot.h"
#include "trace/flow.h"
#include "trace/hub.h"
#include "trace/metrics.h"
#include "trace/profile.h"
#include "trace/slo.h"
#include "trace/trace.h"

namespace mirage::trace {

class WallProfiler;

struct Telemetry
{
    Telemetry();
    ~Telemetry();

    TraceRecorder tracer;
    MetricsRegistry metrics;
    FlowTracker flows{*this};
    Profiler profiler{*this};
    BootTracker boots{*this};
    SloTracker slo{*this};
    TelemetryHub hub{*this};
    /** The sharded engine's wall profiler, which the hub renders;
     *  borrowed, null when nothing shards. */
    const WallProfiler *wall = nullptr;

    /** Write the flight recorder, once; no-op unless MIRAGE_FLIGHT
     *  armed it. */
    void dumpFlight();

  private:
    std::string flight_path_; //!< empty: flight recorder off
    bool flight_dumped_ = false;
};

} // namespace mirage::trace

#endif // MIRAGE_TRACE_TELEMETRY_H
