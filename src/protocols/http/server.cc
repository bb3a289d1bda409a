#include "protocols/http/server.h"

#include "base/logging.h"
#include "hypervisor/xen.h"
#include "trace/boot.h"
#include "trace/flow.h"
#include "trace/profile.h"
#include "trace/trace.h"

namespace mirage::http {

HttpServer::HttpServer(net::NetworkStack &stack, u16 port,
                       Handler handler)
    : stack_(stack), handler_(std::move(handler)),
      trace_(stack.scheduler().engine().telemetry(), stack.domain().name(),
             "/http")
{
    Status st = stack_.tcp().listen(
        port, [this](net::TcpConnPtr conn) { onAccept(conn); });
    if (!st.ok())
        fatal("HttpServer: %s", st.error().message.c_str());
}

void
HttpServer::onAccept(net::TcpConnPtr conn)
{
    connections_++;
    auto st = std::make_shared<ConnState>();
    st->conn = conn;
    conn->onClose([st] {
        st->closed = true;
        // Passive close: once the peer half-closes no further request
        // can arrive, so finish the handshake.  Leaving the connection
        // in CloseWait would pin the peer in FinWait2 (and our handlers
        // with it) forever.
        if (auto c = st->conn.lock())
            c->close();
    });
    conn->onData([this, st](Cstruct data) {
        st->parser.feed(data);
        pump(st);
    });
}

void
HttpServer::pump(std::shared_ptr<ConnState> st)
{
    if (st->closed)
        return;
    net::TcpConnPtr pump_conn = st->conn.lock();
    if (!pump_conn)
        return;
    if (st->parser.state() == RequestParser::State::Broken) {
        parse_failures_++;
        pump_conn->close();
        return;
    }
    if (st->parser.state() != RequestParser::State::Ready)
        return;
    HttpRequest req = st->parser.take();
    bool keep = req.keepAlive();
    requests_++;

    // One flow per request: opened when the request is fully parsed,
    // ended when the response bytes are accepted (the TCP layer keeps
    // its tcp_tx stage open until the final ACK, so the flow finalises
    // at true completion). The handler runs inside the flow, so any
    // block I/O it issues inherits the id through the engine.
    sim::Engine &engine = stack_.scheduler().engine();
    trace::FlowId flow = trace_.begin("http", engine.now(),
                                      req.method + " " + req.path,
                                      stack_.domain().name());
    trace_.stageBegin(flow, "handler", engine.now());

    // The handler (and everything it schedules) is the application's
    // CPU time; the stack's own tx/rx leaves land under net/*.
    trace::ProfScope pscope(engine.profiler(), "app/http");
    handler_(req, [this, st, keep, flow](HttpResponse rsp) {
        sim::Engine &eng = stack_.scheduler().engine();
        trace_.stageEnd(flow, "handler", eng.now());
        net::TcpConnPtr conn = st->conn.lock();
        if (st->closed || !conn) {
            trace_.end(flow, eng.now());
            return;
        }
        if (!keep)
            rsp.headers["Connection"] = "close";
        // Server errors count against the availability SLO; the flow
        // still completes and records its latency.
        if (flow && rsp.status >= 500)
            eng.flows()->markFailed(flow);
        {
            // The response write belongs to this flow even when the
            // handler answered from a different ambient context.
            trace::FlowScope scope = trace_.enter(flow);
            // Head and body go down separately so a view body never
            // touches an intermediate string: only the serialised head
            // (and a string body, when that's all the handler gave us)
            // count as application copies.
            Cstruct head = serialiseResponseHead(rsp);
            stack_.noteTxCopy(head.length());
            conn->write(head);
            if (!rsp.bodyFrags.empty()) {
                for (auto &f : rsp.bodyFrags)
                    conn->write(std::move(f));
            } else if (!rsp.body.empty()) {
                Cstruct b = Cstruct::ofString(rsp.body);
                stack_.noteTxCopy(b.length());
                conn->write(b);
            }
        }
        trace_.end(flow, eng.now());
        // Close the cold-boot loop: the first response this domain
        // serves ends its boot record (no-op for instantly-provisioned
        // guests, which never open one).
        if (auto *boots = eng.boots())
            boots->firstRequest(stack_.domain().name(), eng.now());
        if (!keep) {
            conn->close();
            return;
        }
        // Serve any pipelined request already buffered.
        pump(st);
    });
}

} // namespace mirage::http
