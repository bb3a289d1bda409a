#include "protocols/http/telemetry.h"

#include <utility>

#include "trace/telemetry.h"

namespace mirage::http {

HttpServer::Handler
withTelemetry(trace::Telemetry &t, HttpServer::Handler app)
{
    return [&t, app = std::move(app)](const HttpRequest &req,
                                      HttpServer::Responder respond) {
        bool get = req.method == "GET";
        HttpResponse rsp;
        const char *type = "application/json";
        if (get && req.path == "/metrics") {
            type = "text/plain; version=0.0.4; charset=utf-8";
            rsp.body = t.metrics.toPrometheus() + t.hub.toPrometheus();
        } else if (get && req.path == "/fleet") {
            rsp.body = t.hub.fleetJson();
        } else if (get && req.path == "/flows") {
            rsp.body = t.flows.recentJson();
        } else if (get && req.path == "/top") {
            rsp.body = t.profiler.topJson();
        } else {
            app(req, std::move(respond));
            return;
        }
        rsp.headers["Content-Type"] = type;
        respond(std::move(rsp));
    };
}

} // namespace mirage::http
