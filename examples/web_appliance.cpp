/**
 * @file
 * The §4.4 dynamic web appliance: a "Twitter-like" service keeping
 * tweets in the append-only copy-on-write B-tree on a virtual disk,
 * served over HTTP by a sealed unikernel. Two API calls:
 *
 *   POST /tweet/<user>     body = the tweet
 *   GET  /timeline/<user>  returns the last 100 tweets
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/cloud.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "protocols/http/telemetry.h"
#include "runtime/loop.h"
#include "storage/btree.h"

using namespace mirage;

namespace {

/** Timeline store: tweets keyed "user/seq" in the B-tree. */
class TweetStore
{
  public:
    TweetStore(storage::BTree &tree, rt::GcHeap &heap)
        : tree_(tree), heap_(heap)
    {
    }

    void
    post(const std::string &user, const std::string &text,
         std::function<void(Status)> done)
    {
        u64 seq = next_seq_[user]++;
        // The tweet lives as a managed value until written back.
        rt::CellRef cell = heap_.alloc(u32(text.size()) + 32);
        tree_.set(strprintf("%s/%08llu", user.c_str(),
                            (unsigned long long)seq),
                  text, [this, cell, done = std::move(done)](Status st) {
                      heap_.release(cell);
                      done(st);
                  });
    }

    void
    timeline(const std::string &user,
             std::function<void(std::vector<std::string>)> done)
    {
        tree_.range(user + "/", user + "/~",
                    [done = std::move(done)](auto r) {
                        std::vector<std::string> out;
                        if (r.ok()) {
                            auto &all = r.value();
                            std::size_t from =
                                all.size() > 100 ? all.size() - 100 : 0;
                            for (std::size_t i = from; i < all.size();
                                 i++)
                                out.push_back(all[i].second);
                        }
                        done(out);
                    });
    }

  private:
    storage::BTree &tree_;
    rt::GcHeap &heap_;
    std::map<std::string, u64> next_seq_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string profile_path;
    bool dump_metrics = false;
    bool metrics_prom = false;
    bool check = false;
    bool show_top = false;
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0) {
            trace_path = argv[i] + 8;
        } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
            profile_path = argv[i] + 10;
        } else if (std::strcmp(argv[i], "--top") == 0) {
            show_top = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            dump_metrics = true;
        } else if (std::strncmp(argv[i], "--metrics-format=", 17) ==
                   0) {
            const char *fmt = argv[i] + 17;
            if (std::strcmp(fmt, "prom") == 0) {
                metrics_prom = true;
            } else if (std::strcmp(fmt, "plain") != 0) {
                std::fprintf(stderr,
                             "unknown metrics format: %s\n", fmt);
                return 2;
            }
            dump_metrics = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace=FILE] [--profile=FILE] "
                         "[--top] [--metrics] "
                         "[--metrics-format=prom|plain] [--check]\n",
                         argv[0]);
            return 2;
        }
    }

    core::Cloud cloud;
    if (!trace_path.empty())
        cloud.tracer().enable();
    if (!profile_path.empty())
        cloud.profiler().enable();
    if (check)
        cloud.checker().enable();

    // Storage substrate: virtual SSD + blkback in dom0, blkif in the
    // guest, B-tree library on top.
    xen::VirtualDisk &disk = cloud.addDisk("tweets", 1u << 18);
    xen::Blkback &blkback = cloud.blkbackFor(disk);
    core::Guest &appliance =
        cloud.startUnikernel("twitter", net::Ipv4Addr(10, 0, 0, 80), 32);
    drivers::Blkif blkif(appliance.boot, blkback);
    storage::BlkifDevice dev(blkif);
    storage::BTree tree(dev);
    // The appliance's managed heap (§3.3): tweets are heap values, and
    // a housekeeping thread runs the runtime's periodic minor GC.
    rt::GcHeap heap(appliance.dom.vcpu(),
                    pvboot::MemoryBackend::xenExtent(), 64 * 1024);
    TweetStore store(tree, heap);

    auto gc_tick = rt::asyncLoop<int>(
        [&appliance, &heap](int remaining,
                            std::function<void(int)> next) {
            if (remaining == 0)
                return;
            appliance.sched.sleep(Duration::millis(5))
                ->onComplete([&heap, next = std::move(next),
                              remaining](rt::Promise &) {
                    heap.collectMinor();
                    next(remaining - 1);
                });
        });
    gc_tick(5);

    bool ready = false;
    tree.format([&](Status st) { ready = st.ok(); });

    // The appliance serves its own telemetry: /metrics, /flows and
    // /top ride on the same listener as the application endpoints.
    http::HttpServer web(
        appliance.stack, 80,
        http::withTelemetry(
            cloud.telemetry(),
            [&](const http::HttpRequest &req,
                http::HttpServer::Responder respond) {
                if (req.method == "POST" &&
                    req.path.rfind("/tweet/", 0) == 0) {
                    store.post(req.path.substr(7), req.body,
                               [respond](Status st) {
                                   respond(
                                       st.ok()
                                           ? http::HttpResponse::text(
                                                 201, "created")
                                           : http::HttpResponse::text(
                                                 500, "store error"));
                               });
                    return;
                }
                if (req.method == "GET" &&
                    req.path.rfind("/timeline/", 0) == 0) {
                    store.timeline(
                        req.path.substr(10),
                        [respond](std::vector<std::string> tl) {
                            std::string body;
                            for (const auto &t : tl)
                                body += t + "\n";
                            respond(
                                http::HttpResponse::text(200, body));
                        });
                    return;
                }
                respond(http::HttpResponse::notFound());
            }));

    if (auto st = appliance.seal(); !st.ok()) {
        std::fprintf(stderr, "seal: %s\n", st.error().message.c_str());
        return 1;
    }

    // ---- A client posts and reads back ---------------------------------
    core::Guest &client =
        cloud.startUnikernel("browser", net::Ipv4Addr(10, 0, 0, 9));

    bool metrics_ok = false;
    bool flows_ok = false;
    bool top_ok = false;
    auto session_holder =
        std::make_shared<std::shared_ptr<http::HttpSession>>();
    *session_holder = http::HttpSession::open(
        client.stack, net::Ipv4Addr(10, 0, 0, 80), 80,
        [&, session_holder](Status st) {
            if (!st.ok())
                return;
            auto session = *session_holder;
            for (int i = 0; i < 3; i++) {
                http::HttpRequest post;
                post.method = "POST";
                post.path = "/tweet/alice";
                post.body = strprintf("tweet number %d", i);
                session->request(post, [](auto) {});
            }
            http::HttpRequest get;
            get.method = "GET";
            get.path = "/timeline/alice";
            // The response callbacks are queued on the session itself,
            // so they hold it weakly; the connection's handlers keep
            // the session alive while it is open.
            std::weak_ptr<http::HttpSession> weak = session;
            session->request(get, [&, weak](
                                      Result<http::HttpResponse> r) {
                auto session = weak.lock();
                if (!session)
                    return;
                if (r.ok())
                    std::printf("alice's timeline:\n%s",
                                r.value().body.c_str());
                // The appliance serves its own telemetry; fetch both
                // endpoints over the same keep-alive connection.
                http::HttpRequest prom;
                prom.method = "GET";
                prom.path = "/metrics";
                session->request(
                    prom, [&](Result<http::HttpResponse> m) {
                        if (m.ok() && m.value().status == 200 &&
                            m.value().body.find("# TYPE") !=
                                std::string::npos) {
                            metrics_ok = true;
                            std::printf(
                                "--- /metrics (in-sim) ---\n%s"
                                "--- end /metrics ---\n",
                                m.value().body.c_str());
                        }
                    });
                http::HttpRequest fq;
                fq.method = "GET";
                fq.path = "/flows";
                session->request(
                    fq, [&](Result<http::HttpResponse> f) {
                        if (f.ok() && f.value().status == 200 &&
                            !f.value().body.empty() &&
                            f.value().body[0] == '[') {
                            flows_ok = true;
                            std::printf(
                                "--- /flows (in-sim) ---\n%s"
                                "--- end /flows ---\n",
                                f.value().body.c_str());
                        }
                    });
                http::HttpRequest tq;
                tq.method = "GET";
                tq.path = "/top";
                session->request(
                    tq, [&, weak](Result<http::HttpResponse> t) {
                        auto session = weak.lock();
                        if (!session)
                            return;
                        if (t.ok() && t.value().status == 200 &&
                            t.value().body.find("\"domains\"") !=
                                std::string::npos) {
                            top_ok = true;
                            std::printf("--- /top (in-sim) ---\n%s\n"
                                        "--- end /top ---\n",
                                        t.value().body.c_str());
                        }
                        session->close();
                    });
            });
        });

    cloud.run();

    std::printf("b-tree: %llu entries, %llu commits, %llu nodes "
                "appended, log=%llu kB\n",
                (unsigned long long)tree.entryCount(),
                (unsigned long long)tree.commits(),
                (unsigned long long)tree.nodesAppended(),
                (unsigned long long)(tree.logBytes() / 1024));
    std::printf("disk requests served: %llu\n",
                (unsigned long long)disk.requestsServed());
    std::printf("http: %llu requests over %llu connections\n",
                (unsigned long long)web.requestsServed(),
                (unsigned long long)web.connectionsAccepted());

    if (!trace_path.empty()) {
        if (auto st = cloud.tracer().writeChromeJson(trace_path);
            !st.ok()) {
            std::fprintf(stderr, "trace: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::printf("trace: %zu events -> %s\n",
                    cloud.tracer().eventCount(), trace_path.c_str());
    }
    if (!profile_path.empty()) {
        if (auto st = cloud.profiler().writeFolded(profile_path);
            !st.ok()) {
            std::fprintf(stderr, "profile: %s\n",
                         st.error().message.c_str());
            return 1;
        }
        std::printf("profile: %llu ns charged, %.1f%% attributed -> "
                    "%s\n",
                    (unsigned long long)cloud.profiler().totalNs(),
                    100.0 * cloud.profiler().attributedFraction(),
                    profile_path.c_str());
    }
    if (show_top)
        std::fputs(cloud.profiler().topText().c_str(), stdout);
    if (!metrics_ok || !flows_ok || !top_ok) {
        std::fprintf(stderr,
                     "telemetry self-serve failed (metrics=%d "
                     "flows=%d top=%d)\n",
                     metrics_ok, flows_ok, top_ok);
        return 1;
    }
    if (dump_metrics)
        std::fputs(metrics_prom ? cloud.metrics().toPrometheus().c_str()
                                : cloud.metrics().dump().c_str(),
                   stdout);
    if (check) {
        if (u64 v = cloud.checker().violations(); v > 0) {
            std::fprintf(stderr, "check: %llu violation(s)\n%s",
                         (unsigned long long)v,
                         cloud.checker().report().c_str());
            return 1;
        }
        std::printf("check: no protocol violations\n");
    }
    return ready ? 0 : 1;
}
