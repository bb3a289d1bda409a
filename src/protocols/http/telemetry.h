/**
 * @file
 * Self-served telemetry: wrap an application handler so the appliance
 * itself answers its monitoring endpoints from a trace::Telemetry
 * bundle — observability as a library, in the unikernel spirit: no
 * sidecar process, the appliance links its own monitoring endpoint.
 */

#ifndef MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H
#define MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H

#include "protocols/http/server.h"

namespace mirage::trace {
struct Telemetry;
} // namespace mirage::trace

namespace mirage::http {

/**
 * Wrap @p app so the appliance serves @p t:
 *
 *   GET /metrics  Prometheus text exposition (0.0.4): the registry,
 *                 then the hub's per-domain `fleet_*` series
 *   GET /flows    recent completed request flows, JSON
 *   GET /top      the profiler's xentop-style per-domain snapshot
 *                 (run/steal/blocked time, notify rates, ring
 *                 high-water marks, GC pause quantiles), JSON
 *   GET /fleet    the hub's fleet rollup (per-domain request counts and
 *                 latency quantiles, the histogram-merged fleet-wide
 *                 distribution, boot-phase breakdown, SLO burn state)
 *
 * Every other request is delegated to @p app unchanged. @p t must
 * outlive the handler.
 */
HttpServer::Handler withTelemetry(trace::Telemetry &t,
                                  HttpServer::Handler app);

} // namespace mirage::http

#endif // MIRAGE_PROTOCOLS_HTTP_TELEMETRY_H
