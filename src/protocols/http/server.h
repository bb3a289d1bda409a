/**
 * @file
 * HTTP server library: accepts TCP flows, parses pipelined requests
 * incrementally from packet views, and writes responses back through
 * the zero-copy flow. Handlers answer asynchronously, so storage-
 * backed endpoints (the §4.4 appliance) compose naturally.
 */

#ifndef MIRAGE_PROTOCOLS_HTTP_SERVER_H
#define MIRAGE_PROTOCOLS_HTTP_SERVER_H

#include <functional>
#include <memory>

#include "net/stack.h"
#include "protocols/http/message.h"
#include "trace/layer.h"

namespace mirage::http {

class HttpServer
{
  public:
    /** Handlers reply by invoking the responder exactly once. */
    using Responder = std::function<void(HttpResponse)>;
    using Handler =
        std::function<void(const HttpRequest &, Responder)>;

    HttpServer(net::NetworkStack &stack, u16 port, Handler handler);

    u64 connectionsAccepted() const { return connections_; }
    u64 requestsServed() const { return requests_; }
    u64 parseFailures() const { return parse_failures_; }

  private:
    struct ConnState : std::enable_shared_from_this<ConnState>
    {
        // The connection owns this state (its onData/onClose handlers
        // capture the shared_ptr); the back reference is weak so the
        // pair tears down without a collectable cycle. Writers lock()
        // and treat expiry like a closed connection.
        std::weak_ptr<net::TcpConnection> conn;
        RequestParser parser;
        bool closed = false;
    };

    void onAccept(net::TcpConnPtr conn);
    void pump(std::shared_ptr<ConnState> st);

    net::NetworkStack &stack_;
    Handler handler_;
    u64 connections_ = 0;
    u64 requests_ = 0;
    u64 parse_failures_ = 0;
    trace::LayerTrace trace_; //!< "<dom>/http": request flows, handler
};

} // namespace mirage::http

#endif // MIRAGE_PROTOCOLS_HTTP_SERVER_H
