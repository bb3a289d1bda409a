/**
 * @file
 * Byte-identity goldens for every observability document the system
 * serves or writes, plus the escaping contract for hostile names.
 *
 * One fixed scenario (a monitor appliance, a client and two
 * appliances cold-booted through the toolstack, traced and profiled)
 * renders `/fleet`, `/top`, `/flows` and `/metrics` both in-sim (the
 * bodies a simulated client receives, so equal bytes also mean equal
 * packetisation and equal virtual time) and after the run, along with
 * the folded profile, the Chrome trace and the registry dump. A second
 * scenario (an HTTP handler that writes and reads a block
 * through blkif/blkback, one DNS query, one domainpoll) pins the
 * storage, DNS and domainpoll tracks, their flow stages and `/flows`.
 * Each body must equal `tests/golden/<name>` byte
 * for byte.
 *
 * Every rendered body is also written to `golden_actual/<name>` under
 * the test's working directory; after an intended format change,
 * review the diff and copy those files over `tests/golden/`.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cloud.h"
#include "drivers/blkif.h"
#include "protocols/dns/server.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "protocols/http/telemetry.h"

namespace mirage {
namespace {

using Bodies = std::map<std::string, std::string>;

/**
 * Render every document of the fixed scenario. @p second names the
 * second booted appliance (the escaping test passes a hostile name).
 */
Bodies
renderCloud(const std::string &second)
{
    core::Cloud cloud;
    cloud.tracer().enable();
    cloud.profiler().enable();
    trace::SloTarget target;
    target.latencyTargetNs = 2'000'000;
    target.objective = 0.99;
    cloud.slo().setTarget("http", target);

    core::Guest &monitor =
        cloud.startUnikernel("monitor", net::Ipv4Addr(10, 0, 0, 100));
    http::HttpServer mon_srv(
        monitor.stack, 80,
        http::withTelemetry(cloud.telemetry(),
                            [](const http::HttpRequest &,
                               http::HttpServer::Responder respond) {
                                respond(http::HttpResponse::notFound());
                            }));
    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));

    Bodies out;
    std::vector<std::shared_ptr<http::HttpSession>> sessions;
    std::vector<std::unique_ptr<http::HttpServer>> servers;
    const std::vector<std::string> names = {"web0", second};
    const int kGets = 1;
    int ready = 0, answered = 0;

    auto fetchMonitor = [&] {
        auto holder =
            std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            client.stack, net::Ipv4Addr(10, 0, 0, 100), 80,
            [&out, holder](Status st) {
                ASSERT_TRUE(st.ok());
                for (const char *path :
                     {"/fleet", "/top", "/flows", "/metrics"}) {
                    http::HttpRequest req;
                    req.method = "GET";
                    req.path = path;
                    std::string file =
                        std::string("insim_") + (path + 1) +
                        (std::string(path) == "/metrics" ? ".txt"
                                                         : ".json");
                    (*holder)->request(
                        req, [&out, file](Result<http::HttpResponse> r) {
                            ASSERT_TRUE(r.ok());
                            out[file] = r.value().body;
                        });
                }
            });
        sessions.push_back(*holder);
    };

    auto startTraffic = [&] {
        for (std::size_t i = 0; i < names.size(); i++) {
            auto holder =
                std::make_shared<std::shared_ptr<http::HttpSession>>();
            *holder = http::HttpSession::open(
                client.stack, net::Ipv4Addr(10, 0, 0, u8(1 + i)), 80,
                [&, holder](Status st) {
                    ASSERT_TRUE(st.ok());
                    for (int q = 0; q < kGets; q++) {
                        http::HttpRequest req;
                        req.method = "GET";
                        req.path = "/q" + std::to_string(q);
                        (*holder)->request(
                            req, [&](Result<http::HttpResponse> r) {
                                ASSERT_TRUE(r.ok());
                                if (++answered ==
                                    kGets * int(names.size()))
                                    fetchMonitor();
                            });
                    }
                });
            sessions.push_back(*holder);
        }
    };

    servers.resize(names.size());
    for (std::size_t i = 0; i < names.size(); i++) {
        cloud.bootUnikernel(
            names[i], net::Ipv4Addr(10, 0, 0, u8(1 + i)), 32,
            [&, i](core::Guest &g, xen::BootBreakdown) {
                std::string hello = "hello from " + names[i] + "\n";
                servers[i] = std::make_unique<http::HttpServer>(
                    g.stack, 80,
                    [hello](const http::HttpRequest &,
                            http::HttpServer::Responder respond) {
                        respond(http::HttpResponse::text(200, hello));
                    });
                if (++ready == int(names.size()))
                    startTraffic();
            });
    }
    cloud.run();

    trace::Telemetry &t = cloud.telemetry();
    out["fleet.json"] = t.hub.fleetJson();
    out["top.json"] = t.profiler.topJson();
    out["flows.json"] = t.flows.recentJson();
    out["metrics.txt"] = t.metrics.toPrometheus() + t.hub.toPrometheus();
    out["folded.txt"] = t.profiler.folded();
    out["trace.json"] = t.tracer.toChromeJson();
    out["registry_dump.txt"] = t.metrics.dump();
    return out;
}

/**
 * The storage and DNS scenario: the client blocks in one domainpoll
 * until its timeout, then GETs a page whose handler writes a block and
 * reads it back; the answer sends one DNS query.
 */
Bodies
renderStorageDns()
{
    core::Cloud cloud;
    cloud.tracer().enable();

    xen::VirtualDisk &disk = cloud.addDisk("vol", 1u << 12);
    core::Guest &store =
        cloud.startUnikernel("store", net::Ipv4Addr(10, 0, 0, 1), 32);
    drivers::Blkif blkif(store.boot, cloud.blkbackFor(disk));
    http::HttpServer srv(
        store.stack, 80,
        [&blkif](const http::HttpRequest &,
                 http::HttpServer::Responder respond) {
            Cstruct page = blkif.allocPage().value();
            page.setU8(0, 42);
            blkif.write(8, 8, page)->onComplete(
                [&blkif, page, respond](rt::Promise &) {
                    blkif.read(8, 8, page)->onComplete(
                        [respond](rt::Promise &) {
                            respond(http::HttpResponse::text(200, "ok\n"));
                        });
                });
        });

    core::Guest &ns =
        cloud.startUnikernel("ns", net::Ipv4Addr(10, 0, 0, 53), 32);
    dns::DnsServer dns_srv(dns::syntheticZone("golden.example.", 4),
                           dns::DnsServer::Config{});
    EXPECT_TRUE(dns_srv.attachUdp(ns.stack).ok());

    core::Guest &client =
        cloud.startUnikernel("client", net::Ipv4Addr(10, 0, 0, 9));
    auto query = [&] {
        dns::DnsMessage q;
        q.header = dns::DnsHeader{};
        q.header.id = 7;
        q.header.qdcount = 1;
        q.questions.push_back(dns::Question{
            dns::nameFromString("host000001.golden.example").value(), 1,
            1});
        client.stack.udp().sendTo(
            net::Ipv4Addr(10, 0, 0, 53), 53, 5353,
            {dns::MessageWriter(dns::CompressionImpl::None).write(q)});
    };
    int answers = 0;
    client.stack.udp().listen(5353,
                              [&](const net::UdpDatagram &) { answers++; });
    std::shared_ptr<http::HttpSession> session;
    client.boot.domainpoll({}, Duration::micros(100), [&](auto) {
        session = http::HttpSession::open(
            client.stack, net::Ipv4Addr(10, 0, 0, 1), 80, [&](Status st) {
                ASSERT_TRUE(st.ok());
                http::HttpRequest req;
                req.method = "GET";
                req.path = "/store";
                session->request(req, [&](Result<http::HttpResponse> r) {
                    ASSERT_TRUE(r.ok());
                    query();
                });
            });
    });
    cloud.run();
    EXPECT_EQ(answers, 1);
    EXPECT_EQ(blkif.requestsCompleted(), 2u);

    trace::Telemetry &t = cloud.telemetry();
    return {{"storage_trace.json", t.tracer.toChromeJson()},
            {"storage_flows.json", t.flows.recentJson()},
            {"storage_metrics.txt", t.metrics.toPrometheus()}};
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

void
expectGolden(const Bodies &bodies)
{
    std::filesystem::create_directories("golden_actual");
    for (const auto &[name, body] : bodies)
        std::ofstream("golden_actual/" + name, std::ios::binary) << body;
    for (const auto &[name, body] : bodies) {
        std::filesystem::path golden =
            std::filesystem::path(MIRAGE_GOLDEN_DIR) / name;
        EXPECT_TRUE(std::filesystem::exists(golden)) << golden;
        EXPECT_TRUE(readFile(golden) == body)
            << name << " differs from " << golden
            << " (rendered copy in golden_actual/" << name << ")";
    }
}

/**
 * Strict JSON well-formedness (RFC 8259 grammar, no extensions): enough
 * to prove an escaping bug turns a document invalid.
 */
class JsonCheck
{
  public:
    explicit JsonCheck(std::string_view s) : s_(s) {}

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]))
            i_++;
    }
    bool
    eat(char c)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == c) {
            i_++;
            return true;
        }
        return false;
    }
    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size()) {
            char c = s_[i_++];
            if (c == '"')
                return true;
            if (u8(c) < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (i_ >= s_.size())
                return false;
            char e = s_[i_++];
            if (e == 'u') {
                for (int k = 0; k < 4; k++)
                    if (i_ >= s_.size() || !std::isxdigit(u8(s_[i_++])))
                        return false;
            } else if (!std::strchr("\"\\/bfnrt", e)) {
                return false;
            }
        }
        return false;
    }
    bool
    number()
    {
        std::size_t start = i_;
        if (i_ < s_.size() && s_[i_] == '-')
            i_++;
        while (i_ < s_.size() &&
               (std::isdigit(u8(s_[i_])) || std::strchr(".eE+-", s_[i_])))
            i_++;
        return i_ > start;
    }
    template <class Item>
    bool
    sequence(char close, Item item)
    {
        if (eat(close))
            return true;
        do {
            if (!item())
                return false;
        } while (eat(','));
        return eat(close);
    }
    bool
    value()
    {
        ws();
        if (i_ >= s_.size())
            return false;
        char c = s_[i_];
        if (c == '{') {
            i_++;
            return sequence('}', [this] {
                ws();
                return string() && eat(':') && value();
            });
        }
        if (c == '[') {
            i_++;
            return sequence(']', [this] { return value(); });
        }
        if (c == '"')
            return string();
        for (std::string_view lit : {"true", "false", "null"}) {
            if (s_.substr(i_, lit.size()) == lit) {
                i_ += lit.size();
                return true;
            }
        }
        return number();
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

TEST(GoldenTest, CloudDocumentsAreByteIdentical)
{
    Bodies bodies = renderCloud("web1");
    EXPECT_EQ(bodies.size(), 11u); // four in-sim fetches all answered
    expectGolden(bodies);
}

TEST(GoldenTest, StorageAndDnsDocumentsAreByteIdentical)
{
    Bodies bodies = renderStorageDns();
    const std::string &trace = bodies["storage_trace.json"];
    for (const char *track : {"store/blkif", "dom0/blkback", "ns/dns",
                              "client/domainpoll"})
        EXPECT_NE(trace.find(track), std::string::npos) << track;
    for (const char *stage : {"\"blkif\":", "\"blkback\":"})
        EXPECT_NE(bodies["storage_flows.json"].find(stage),
                  std::string::npos)
            << stage;
    // The DNS reply reaches the netif a vCPU hop after the handler
    // returns; its netif_tx stage must still land inside the flow.
    const std::string &flows = bodies["storage_flows.json"];
    std::size_t dns = flows.find("\"kind\":\"dns\"");
    ASSERT_NE(dns, std::string::npos);
    std::string dns_flow = flows.substr(dns, flows.find("}}", dns) - dns);
    EXPECT_NE(dns_flow.find("\"netif_tx\":"), std::string::npos) << dns_flow;
    EXPECT_EQ(dns_flow.find("\"total_ns\":0,"), std::string::npos)
        << dns_flow;
    expectGolden(bodies);
}

TEST(GoldenTest, JsonDocumentsAreWellFormed)
{
    Bodies all = renderCloud("web1");
    all.merge(renderStorageDns());
    for (const auto &[name, body] : all) {
        if (name.ends_with(".json")) {
            EXPECT_TRUE(JsonCheck(body).valid()) << name;
        }
    }
}

TEST(GoldenTest, HostileDomainNameIsEscapedEverywhere)
{
    // Quote and backslash: the two bytes that end or escape a JSON
    // string. Every document must carry only the escaped form.
    const std::string hostile = "we\"b\\1";
    const std::string escaped = "we\\\"b\\\\1";
    Bodies bodies = renderCloud(hostile);
    for (const char *name :
         {"trace.json", "top.json", "fleet.json", "flows.json",
          "insim_top.json", "insim_fleet.json", "insim_flows.json"}) {
        const std::string &body = bodies[name];
        EXPECT_TRUE(JsonCheck(body).valid()) << name;
        EXPECT_EQ(body.find(hostile), std::string::npos) << name;
    }
    for (const char *name : {"trace.json", "top.json", "fleet.json"})
        EXPECT_NE(bodies[name].find(escaped), std::string::npos) << name;
    // The event-channel notify instant names its sender.
    EXPECT_NE(bodies["trace.json"].find("\"from\":\"" + escaped + "\""),
              std::string::npos);
    // Prometheus label values escape the same two bytes.
    for (const char *name : {"metrics.txt", "insim_metrics.txt"})
        EXPECT_NE(bodies[name].find("fleet_requests_total{domain=\"" +
                                    escaped + "\"} 1\n"),
                  std::string::npos)
            << name;
}

} // namespace
} // namespace mirage
