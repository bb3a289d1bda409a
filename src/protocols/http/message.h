/**
 * @file
 * HTTP/1.1 messages: request/response types, incremental parsers fed
 * with packet views straight off the TCP flow (the iteratee style of
 * §3.5 — no intermediate fixed-size buffers), and serialisers.
 * Supports Content-Length bodies and keep-alive.
 */

#ifndef MIRAGE_PROTOCOLS_HTTP_MESSAGE_H
#define MIRAGE_PROTOCOLS_HTTP_MESSAGE_H

#include <map>
#include <string>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"

namespace mirage::http {

/** Case-insensitive header map. */
struct HeaderLess
{
    bool operator()(const std::string &a, const std::string &b) const;
};

using Headers = std::map<std::string, std::string, HeaderLess>;

struct HttpRequest
{
    std::string method;
    std::string path;
    std::string version = "HTTP/1.1";
    Headers headers;
    std::string body;

    bool keepAlive() const;
};

struct HttpResponse
{
    int status = 200;
    std::string reason = "OK";
    Headers headers;
    std::string body;
    /**
     * Zero-copy body: when non-empty these views *are* the body and
     * `body` is ignored. The server writes them to the flow unchanged
     * — the sendfile path from a buffer cache or static page straight
     * into tx slots, no intermediate string assembly.
     */
    std::vector<Cstruct> bodyFrags;

    std::size_t bodyLength() const;

    static HttpResponse text(int status, const std::string &body);
    /** A 200 response whose body is served as views (zero-copy). */
    static HttpResponse view(std::vector<Cstruct> frags,
                             const std::string &content_type = "text/plain");
    static HttpResponse notFound();
};

/** Serialise (Content-Length added automatically). */
Cstruct serialiseRequest(const HttpRequest &req);
/** Status line + headers + blank line only — the body (string or
 *  views) is written separately on the zero-copy path. */
Cstruct serialiseResponseHead(const HttpResponse &rsp);

/**
 * Incremental parser for a stream of requests (server side) or
 * responses (client side). Feed it views; poll for complete messages.
 */
template <typename Message>
class MessageParser
{
  public:
    enum class State { NeedMore, Ready, Broken };

    /** Append stream data. */
    State feed(const Cstruct &data);

    State state() const { return state_; }

    /** Take the parsed message; parser resets and re-examines any
     *  pipelined leftover bytes. */
    Message take();

    const std::string &error() const { return error_; }

  private:
    State parseBuffered();
    Result<bool> parseHead(std::size_t head_end);

    std::string buf_;
    State state_ = State::NeedMore;
    Message pending_;
    std::size_t body_expected_ = 0;
    bool head_done_ = false;
    std::string error_;
};

using RequestParser = MessageParser<HttpRequest>;
using ResponseParser = MessageParser<HttpResponse>;

} // namespace mirage::http

#endif // MIRAGE_PROTOCOLS_HTTP_MESSAGE_H
