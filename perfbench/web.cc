/**
 * @file
 * web_rw: four Twitter-like appliances (§4.4), each an HTTP server over
 * a storage::BTree on its own blkif/blkback disk, as in
 * examples/web_appliance.cpp. One client runs an open loop of httperf
 * sessions at a fixed virtual rate below saturation (3000/s, where
 * p50 latency is still within 1.6x of an idle appliance's);
 * a session opens a connection and issues 10 requests in turn: 9
 * `GET /timeline/<user>` reads and one `POST /tweet/<user>` write, in
 * 5th place so the reads after it check read-your-writes.
 *
 * Every timeline is checked against a shadow of the tweets the client
 * posted: each line is a tweet posted to that user, and every tweet
 * acknowledged before the GET was sent is present.
 */

#include <deque>
#include <memory>
#include <set>

#include "base/rand.h"
#include "common.h"
#include "drivers/blkif.h"
#include "protocols/http/client.h"
#include "protocols/http/server.h"
#include "runtime/gc_heap.h"
#include "runtime/loop.h"
#include "storage/btree.h"

namespace perfbench {

using namespace mirage;

namespace {

constexpr int kApps = 4;
constexpr u32 kUsers = 64;             //!< timeline owners per appliance
constexpr u32 kPreloadPerUser = 2;     //!< tweets stored before timing
constexpr double kSessionsPerSecond = 3000;
constexpr Duration kWindow = Duration::millis(400);
constexpr u32 kRequests = 10;
constexpr u32 kPostAt = 4;
constexpr Duration kGcPeriod = Duration::millis(5);

/** Counts the B-tree's block traffic at the storage boundary. */
class CountingDevice : public storage::BlockDevice
{
  public:
    explicit CountingDevice(storage::BlockDevice &inner) : inner_(inner) {}

    u64 sizeSectors() const override { return inner_.sizeSectors(); }
    void
    read(u64 sector, u32 count, Cstruct buf,
         storage::BlockCallback done) override
    {
        reads++;
        inner_.read(sector, count, std::move(buf), std::move(done));
    }
    void
    write(u64 sector, u32 count, Cstruct buf,
          storage::BlockCallback done) override
    {
        writes++;
        inner_.write(sector, count, std::move(buf), std::move(done));
    }

    u64 reads = 0;
    u64 writes = 0;

  private:
    storage::BlockDevice &inner_;
};

/** One appliance: disk, B-tree, managed heap and HTTP front end. */
struct App
{
    core::Guest &guest;
    drivers::Blkif blkif;
    storage::BlkifDevice blkdev{blkif};
    CountingDevice dev{blkdev};
    storage::BTree tree{dev};
    rt::GcHeap heap;
    std::map<std::string, u64> next_seq;
    std::unique_ptr<http::HttpServer> web;
    u64 gets = 0; //!< timeline range queries
    u64 sets = 0; //!< tweets stored

    App(core::Guest &g, xen::Blkback &back)
        : guest(g), blkif(g.boot, back),
          heap(g.dom.vcpu(), pvboot::MemoryBackend::xenExtent(),
               64 * 1024)
    {
    }

    /**
     * Store a tweet. Sets run one at a time: BTree::set computes its
     * append offset from the log end at call time and only advances it
     * on completion, so two sets in flight would overwrite each other's
     * nodes. The appliance is the tree's single writer; reads need no
     * lock, since committed nodes are never overwritten.
     */
    void
    post(const std::string &user, const std::string &text,
         std::function<void(Status)> done)
    {
        u64 seq = next_seq[user]++;
        sets++;
        // The tweet lives as a managed value until written back.
        rt::CellRef cell = heap.alloc(u32(text.size()) + 32);
        writes_.push_back([this, key = strprintf("%s/%08llu", user.c_str(),
                                                 (unsigned long long)seq),
                           text, cell, done = std::move(done)]() mutable {
            SpanScope s("storage.call");
            tree.set(key, text,
                     [this, cell, done = std::move(done)](Status st) {
                         heap.release(cell);
                         writing_ = false;
                         done(st);
                         nextWrite();
                     });
        });
        nextWrite();
    }

    void
    serve(const http::HttpRequest &req, http::HttpServer::Responder respond)
    {
        if (req.method == "POST" && req.path.rfind("/tweet/", 0) == 0) {
            post(req.path.substr(7), req.body, [respond](Status st) {
                SpanScope r("app.respond");
                respond(st.ok() ? http::HttpResponse::text(201, "created")
                                : http::HttpResponse::text(500, "error"));
            });
            return;
        }
        if (req.method == "GET" && req.path.rfind("/timeline/", 0) == 0) {
            std::string user = req.path.substr(10);
            gets++;
            SpanScope s("storage.call");
            tree.range(user + "/", user + "/~", [respond](auto r) {
                SpanScope rs("app.respond");
                if (!r.ok()) {
                    respond(http::HttpResponse::text(500, "error"));
                    return;
                }
                const auto &all = r.value();
                std::size_t from = all.size() > 100 ? all.size() - 100 : 0;
                std::string body;
                for (std::size_t i = from; i < all.size(); i++)
                    body += all[i].second + "\n";
                respond(http::HttpResponse::text(200, body));
            });
            return;
        }
        respond(http::HttpResponse::notFound());
    }

  private:
    void
    nextWrite()
    {
        if (writing_ || writes_.empty())
            return;
        writing_ = true;
        auto op = std::move(writes_.front());
        writes_.pop_front();
        op();
    }

    std::deque<std::function<void()>> writes_;
    bool writing_ = false;
};

/** The client's record of what it posted, per (appliance, user). */
struct Shadow
{
    struct Tweet
    {
        std::string text;
        bool acked = false;
    };
    std::map<std::pair<int, u32>, std::vector<Tweet>> posted;
};

struct SessionPlan
{
    Duration at;
    int app;
    u32 user;
    std::string tweet;
};

/**
 * httperf's fixed session rate: session k arrives at a uniformly random
 * instant of its own 1/rate slot, so every seed offers the same number
 * of sessions at the same rate.
 */
std::vector<SessionPlan>
planSessions(u64 seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    auto sessions = std::size_t(kSessionsPerSecond * kWindow.toSecondsF());
    std::vector<SessionPlan> out;
    for (std::size_t k = 0; k < sessions; k++) {
        SessionPlan p;
        p.at = Duration::fromSecondsF((double(k) + rng.uniform()) /
                                      kSessionsPerSecond);
        p.app = int(rng.below(kApps));
        p.user = u32(rng.below(kUsers));
        // Unique text; its length (40..140 bytes) varies the node sizes.
        p.tweet = strprintf("s%zu-", k);
        p.tweet.resize(40 + rng.below(101), char('a' + k % 26));
        out.push_back(std::move(p));
    }
    return out;
}

/** One session's client state. */
struct Session : std::enable_shared_from_this<Session>
{
    core::Guest &client;
    Shadow &shadow;
    Rep &rep;
    std::vector<i64> &lag_ns;
    TimePoint &last_response;
    SessionPlan plan;
    std::weak_ptr<http::HttpSession> http;
    TimePoint due;

    Session(core::Guest &c, Shadow &s, Rep &r, std::vector<i64> &lag,
            TimePoint &last, SessionPlan p)
        : client(c), shadow(s), rep(r), lag_ns(lag), last_response(last),
          plan(std::move(p))
    {
    }

    TimePoint now() const { return client.dom.engine().now(); }
    std::string user() const { return strprintf("user%u", plan.user); }
    std::vector<Shadow::Tweet> &
    tweets()
    {
        return shadow.posted[{plan.app, plan.user}];
    }

    void
    start()
    {
        due = now();
        auto self = shared_from_this();
        net::Ipv4Addr ip(10, 0, 0, u8(80 + plan.app));
        // `holder` keeps the HTTP session alive until it connects; from
        // then on its connection's handlers own it.
        auto holder =
            std::make_shared<std::shared_ptr<http::HttpSession>>();
        *holder = http::HttpSession::open(
            client.stack, ip, 80, [self, holder](Status st) {
                SpanScope cb("client.callback");
                if (!st.ok()) {
                    self->rep.attempted += kRequests;
                    self->rep.failed += kRequests;
                    self->rep.fail("web: connect failed");
                    return;
                }
                self->http = *holder;
                self->lag_ns.push_back((self->now() - self->due).ns());
                self->issue(0);
            });
    }

    void
    issue(u32 i)
    {
        auto conn = http.lock();
        if (i == kRequests || !conn) {
            if (conn)
                conn->close();
            else
                rep.fail("web: session closed early");
            return;
        }
        rep.attempted++;
        http::HttpRequest req;
        std::vector<std::string> must_see;
        bool is_post = i == kPostAt;
        if (is_post) {
            req.method = "POST";
            req.path = "/tweet/" + user();
            req.body = plan.tweet;
            tweets().push_back({plan.tweet, false});
        } else {
            req.method = "GET";
            req.path = "/timeline/" + user();
            for (const auto &t : tweets())
                if (t.acked)
                    must_see.push_back(t.text);
        }
        // The callback (queued on the HTTP session) owns this object,
        // which holds the HTTP session only weakly: no cycle.
        conn->request(req, [self = shared_from_this(), i, is_post,
                            must_see = std::move(must_see)](
                               Result<http::HttpResponse> r) {
            SpanScope cb("client.callback");
            self->complete(i, is_post, must_see, r);
        });
    }

    void
    complete(u32 i, bool is_post, const std::vector<std::string> &must_see,
             Result<http::HttpResponse> &r)
    {
        i64 lat = (now() - due).ns();
        last_response = now();
        std::string err;
        if (!r.ok())
            err = "no response: " + r.error().message;
        else if (is_post && r.value().status != 201)
            err = strprintf("POST status %d", r.value().status);
        else if (!is_post && r.value().status != 200)
            err = strprintf("GET status %d", r.value().status);
        else if (is_post) {
            for (auto &t : tweets())
                if (t.text == plan.tweet)
                    t.acked = true;
            rep.write_ns.push_back(lat);
            rep.payload_bytes += plan.tweet.size();
        } else {
            err = checkTimeline(r.value().body, must_see);
            rep.payload_bytes += r.value().body.size();
        }
        if (!err.empty()) {
            rep.failed++;
            rep.fail("web " + user() + ": " + err);
        } else {
            rep.latency_ns.push_back(lat);
        }
        due = now();
        issue(i + 1);
    }

    std::string
    checkTimeline(const std::string &body,
                  const std::vector<std::string> &must_see)
    {
        std::set<std::string> seen;
        std::size_t pos = 0;
        while (pos < body.size()) {
            std::size_t nl = body.find('\n', pos);
            if (nl == std::string::npos)
                return "unterminated timeline line";
            if (!seen.insert(body.substr(pos, nl - pos)).second)
                return "tweet listed twice: " + body.substr(pos, nl - pos);
            pos = nl + 1;
        }
        const auto &all = tweets();
        for (const auto &line : seen) {
            bool known = false;
            for (const auto &t : all)
                known = known || t.text == line;
            if (!known)
                return "timeline holds a tweet never posted: " + line;
        }
        if (seen.size() < 100)
            for (const auto &m : must_see)
                if (!seen.count(m))
                    return "acknowledged tweet missing: " + m;
        return "";
    }
};

} // namespace

Rep
runWeb(const RepConfig &cfg)
{
    Rep rep;
    std::vector<SessionPlan> plan = planSessions(cfg.seed);

    Phase setup;
    Stamp t0;
    auto cloud = std::make_unique<core::Cloud>();
    rep.ctor_s = wallNow() - t0.wall;
    if (cfg.traced) {
        cloud->tracer().setFlightCapacity(1u << 20);
        cloud->tracer().enable();
        cloud->profiler().enable();
        cloud->flows().setRecentCapacity(plan.size() * kRequests);
    }
    cloud->checker().enable();

    std::vector<std::unique_ptr<App>> owned;
    std::vector<App *> apps;
    Shadow shadow;
    double t1 = wallNow();
    core::Guest *client = nullptr;
    {
        SpanScope provision("setup.provision");
        for (int a = 0; a < kApps; a++) {
            xen::VirtualDisk &disk =
                cloud->addDisk(strprintf("tweets%d", a), 1u << 18);
            core::Guest &g = cloud->startUnikernel(
                strprintf("twitter%d", a),
                net::Ipv4Addr(10, 0, 0, u8(80 + a)), 32);
            owned.push_back(
                std::make_unique<App>(g, cloud->blkbackFor(disk)));
            App *app = owned.back().get();
            apps.push_back(app);
            app->web = std::make_unique<http::HttpServer>(
                g.stack, 80,
                [app, fl = &cloud->flows()](
                    const http::HttpRequest &req,
                    http::HttpServer::Responder respond) {
                    SpanScope h("app.handler", fl->current());
                    app->serve(req, std::move(respond));
                });
        }
        client = &cloud->startUnikernel("client",
                                        net::Ipv4Addr(10, 0, 0, 9));
    }
    double t2 = wallNow();
    rep.provision_s = t2 - t1;

    // Format each tree and store a few tweets per user, so timelines
    // start non-empty and reads find a tree several levels deep.
    u64 preload_failed = 0;
    {
        SpanScope disk("setup.disk");
        for (int a = 0; a < kApps; a++) {
            App *app = apps[std::size_t(a)];
            app->tree.format([&, app, a](Status st) {
                if (!st.ok()) {
                    preload_failed++;
                    return;
                }
                for (u32 u = 0; u < kUsers; u++)
                    for (u32 k = 0; k < kPreloadPerUser; k++) {
                        std::string text =
                            strprintf("pre-%d-%u-%u", a, u, k);
                        shadow.posted[{a, u}].push_back({text, true});
                        app->post(strprintf("user%u", u), text,
                                  [&](Status s) {
                                      if (!s.ok())
                                          preload_failed++;
                                  });
                    }
            });
        }
        cloud->run();
        for (App *app : apps)
            if (Status st = app->guest.seal(); !st.ok())
                rep.fail("seal: " + st.error().message);
    }
    rep.disk_s = wallNow() - t2;
    rep.setup = setup.end();
    if (preload_failed)
        rep.fail("web: preload failed");
    if (cfg.setup_only) {
        for (App *app : apps)
            app->web.reset();
        owned.clear();
        teardown(cloud, rep);
        return rep;
    }

    // Baselines for the timed phase's storage rows.
    u64 appended0 = 0, reads0 = 0, writes0 = 0, hits0 = 0, misses0 = 0;
    for (App *app : apps) {
        appended0 += app->tree.nodesAppended();
        reads0 += app->dev.reads;
        writes0 += app->dev.writes;
        hits0 += app->tree.cacheHits();
        misses0 += app->tree.cacheMisses();
    }

    // The load: session arrivals fixed in advance from the seed, and a
    // housekeeping minor GC per appliance while the window is open.
    sim::Engine &eng = client->dom.engine();
    TimePoint start = eng.now();
    std::vector<i64> lag_ns;
    TimePoint last_response = start;
    for (const SessionPlan &p : plan) {
        auto s = std::make_shared<Session>(*client, shadow, rep, lag_ns,
                                           last_response, p);
        eng.after(p.at, [s] { s->start(); });
    }
    i64 ticks = kWindow.ns() / kGcPeriod.ns();
    std::vector<std::function<void(i64)>> gc_loops;
    for (App *app : apps) {
        gc_loops.push_back(rt::asyncLoop<i64>(
            [app](i64 left, std::function<void(i64)> next) {
                if (left == 0)
                    return;
                app->guest.sched.sleep(kGcPeriod)->onComplete(
                    [app, next = std::move(next), left](rt::Promise &) {
                        app->heap.collectMinor();
                        next(left - 1);
                    });
            }));
        gc_loops.back()(ticks);
    }

    {
        SpanScope run("cloud.run");
        runTimed(*cloud, rep);
    }
    rep.vt_ns = (last_response - start).ns();
    if (rep.attempted != plan.size() * kRequests)
        rep.fail(strprintf("web: %llu of %zu requests issued",
                           (unsigned long long)rep.attempted,
                           plan.size() * kRequests));

    rep.events = cloud->eventsRun();
    rep.checksum = cloud->shards().dispatchChecksum();
    checkClean(*cloud, rep);
    u64 ops = rep.latency_ns.size();
    collectLayerCounters(*cloud, ops, rep);
    u64 appended = 0, reads = 0, writes = 0, hits = 0, misses = 0;
    u64 gets = 0, sets = 0, entries = 0;
    for (App *app : apps) {
        gets += app->gets;
        sets += app->sets;
        entries += app->tree.entryCount();
        appended += app->tree.nodesAppended();
        reads += app->dev.reads;
        writes += app->dev.writes;
        hits += app->tree.cacheHits();
        misses += app->tree.cacheMisses();
    }
    auto &L = rep.layer;
    hits -= hits0;
    misses -= misses0;
    L["storage.cache_hit_ratio"] =
        hits + misses ? double(hits) / double(hits + misses) : 0;
    L["storage.nodes_appended_per_write"] =
        rep.write_ns.empty()
            ? 0
            : double(appended - appended0) / double(rep.write_ns.size());
    L["storage.blk_reads"] = double(reads - reads0);
    L["storage.blk_writes"] = double(writes - writes0);
    L["_storage.gets"] = double(gets);
    L["_storage.sets"] = double(sets);
    L["_storage.entries"] = double(entries) / kApps;
    L["loadgen.lag_p99_ms"] = double(quantile(lag_ns, 0.99)) / 1e6;
    if (cfg.traced)
        collectTraced(*cloud, cfg, rep);

    for (App *app : apps)
        app->web.reset();
    owned.clear();
    teardown(cloud, rep);
    return rep;
}

} // namespace perfbench
