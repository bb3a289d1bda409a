#include "sim/shard.h"

#include <algorithm>

#include "base/logging.h"

namespace mirage::sim {

ShardSet::ShardSet(Engine &primary, unsigned shards, Duration lookahead)
    : lookahead_(lookahead)
{
    if (shards == 0)
        shards = 1;
    if (lookahead_.ns() <= 0)
        fatal("ShardSet: lookahead must be positive");
    engines_.push_back(&primary);
    for (unsigned i = 1; i < shards; i++) {
        owned_.push_back(std::make_unique<Engine>(primary.telemetry(),
                                                  primary.checker()));
        engines_.push_back(owned_.back().get());
    }
    for (Engine *e : engines_)
        e->setShards(this);
    wallprof_.configure(unsigned(engines_.size()));
}

ShardSet::~ShardSet()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lk(ctl_mu_);
            quit_ = true;
        }
        cv_go_.notify_all();
        for (auto &w : workers_)
            w.join();
    }
    for (Engine *e : engines_)
        e->setShards(nullptr);
}

CrossHandle
ShardSet::postAt(Engine &target, TimePoint when, Callback &&fn)
{
    Engine *src = Engine::current();
    CrossHandle h;
    h.target = &target;
    h.when = when;
    if (src == &target || engines_.size() == 1) {
        // Same shard (or a single-shard set, where the caller's thread
        // owns every queue): a plain schedule, identical key
        // consumption — the mailbox would only defer delivery.
        h.event = target.at(when, std::move(fn));
        return h;
    }
    // The causal key comes from the *sending* context: the dispatching
    // engine mid-run, or shard 0's root counter during single-threaded
    // setup. That makes the key — and hence the merged dispatch order —
    // independent of where the target domain was placed.
    Engine &key_src = src ? *src : *engines_[0];
    if (running_ && src && when < src->now() + lookahead_)
        fatal("cross-shard post at t=%lld violates lookahead "
              "(sender now=%lld, lookahead=%lld ns)",
              (long long)when.ns(), (long long)src->now().ns(),
              (long long)lookahead_.ns());
    CrossMsg m;
    m.target = &target;
    m.when = when;
    m.key = key_src.nextKey();
    trace::Telemetry *t = engines_[0]->telemetry();
    m.flow = t ? t->flows.current() : 0;
    m.pscope = t ? t->profiler.current() : 0;
    m.posted_vt = src ? src->now().ns() : engines_[0]->now().ns();
    m.fn = std::move(fn);
    h.hash = m.key.hash;
    // Wall stamps are observation only (delivery-lag histograms and
    // the posting worker's drain phase); nothing here feeds back into
    // the virtual schedule.
    i64 a0 = wallprof_.nowNs();
    m.posted_wall = a0;
    {
        std::lock_guard<std::mutex> lk(post_mu_);
        pending_.push_back(std::move(m));
        cross_posts_++;
    }
    wallprof_.mailboxAppend(a0, wallprof_.nowNs());
    return h;
}

void
ShardSet::cancelCross(const CrossHandle &h)
{
    if (!h.valid())
        return;
    if (h.event) {
        // Same-shard handle: only its own shard may touch the queue.
        h.target->cancel(h.event);
        return;
    }
    std::lock_guard<std::mutex> lk(post_mu_);
    cancels_.push_back(h.hash);
}

bool
ShardSet::stepWindow(TimePoint deadline, i64 &coord_ns)
{
    // Barrier: every worker is parked, so the coordinator owns all
    // shard queues and the mailbox. Wall stamps bracket the barrier's
    // two jobs — window computation (calc) and mailbox delivery
    // (drain) — and the carried coord_ns stamp opens this window right
    // where the previous one closed, so every coordinator nanosecond
    // lands in a phase.
    i64 w0 = coord_ns;
    std::unique_lock<std::mutex> lk(post_mu_);
    if (!cancels_.empty()) {
        for (u64 hash : cancels_) {
            auto it = std::find_if(pending_.begin(), pending_.end(),
                                   [hash](const CrossMsg &m) {
                                       return m.key.hash == hash;
                                   });
            if (it != pending_.end()) {
                // Windows never extend past an undelivered cross
                // message, so reaching here means the cancel's virtual
                // time preceded delivery: removal is exact, and the
                // message never reaches the delivered count or the
                // delivery-lag histograms.
                pending_.erase(it);
                cross_cancelled_++;
            }
        }
        cancels_.clear();
    }

    TimePoint t = Engine::kNever;
    for (Engine *e : engines_)
        t = std::min(t, e->nextEventTime());
    for (const CrossMsg &m : pending_)
        t = std::min(t, m.when);
    if (t == Engine::kNever || t > deadline) {
        lk.unlock();
        coord_ns = wallprof_.nowNs();
        wallprof_.barrierCalc(w0, coord_ns);
        return false;
    }
    TimePoint wend = t + lookahead_;
    i64 w1 = wallprof_.nowNs();
    wallprof_.barrierCalc(w0, w1);

    // Deliver every mailbox message due now; everything later bounds
    // the window so cancels stay exact and merges stay conservative.
    for (std::size_t i = 0; i < pending_.size();) {
        CrossMsg &m = pending_[i];
        if (m.when <= t) {
            cross_delivered_++;
            wallprof_.deliveryLag(m.when.ns() > m.posted_vt
                                      ? u64(m.when.ns() - m.posted_vt)
                                      : 0,
                                  m.posted_wall, w1);
            m.target->atKeyed(m.when, m.key, m.flow, m.pscope,
                              std::move(m.fn));
            pending_.erase(pending_.begin() + i);
        } else {
            wend = std::min(wend, m.when);
            i++;
        }
    }
    if (deadline < Engine::kNever)
        wend = std::min(wend, deadline + Duration::nanos(1));
    lk.unlock();
    i64 w2 = wallprof_.nowNs();
    wallprof_.barrierDrain(w1, w2, t.ns(), wend.ns());

    windows_++;
    coord_ns = runWorkers(t, wend, w2);
    return true;
}

void
ShardSet::startWorkers()
{
    if (engines_.size() <= 1 || !workers_.empty())
        return;
    for (unsigned i = 1; i < engines_.size(); i++)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
ShardSet::workerLoop(unsigned shard)
{
    u64 seen = 0;
    for (;;) {
        TimePoint start, end;
        {
            std::unique_lock<std::mutex> lk(ctl_mu_);
            cv_go_.wait(lk,
                        [&] { return quit_ || epoch_ != seen; });
            if (quit_)
                return;
            seen = epoch_;
            start = window_start_;
            end = window_end_;
        }
        // One stamp closes the park interval and opens the dispatch
        // span, so the worker's wall time tiles with no gaps.
        i64 woke = wallprof_.nowNs();
        wallprof_.workerWake(shard, woke);
        trace::WallProfiler::DispatchCtx ctx;
        wallprof_.dispatchBegin(ctx, shard, woke);
        u64 n = engines_[shard]->runWindow(end);
        wallprof_.dispatchEnd(ctx, wallprof_.nowNs(), start.ns(),
                              end.ns(), n);
        {
            std::lock_guard<std::mutex> lk(ctl_mu_);
            done_++;
        }
        cv_done_.notify_one();
    }
}

i64
ShardSet::runWorkers(TimePoint window_start, TimePoint window_end,
                     i64 coord_ns)
{
    if (engines_.size() == 1) {
        trace::WallProfiler::DispatchCtx ctx;
        wallprof_.dispatchBegin(ctx, 0, coord_ns);
        u64 n = engines_[0]->runWindow(window_end);
        i64 e = wallprof_.nowNs();
        wallprof_.dispatchEnd(ctx, e, window_start.ns(),
                              window_end.ns(), n);
        wallprof_.recordWindow();
        return e;
    }
    {
        std::lock_guard<std::mutex> lk(ctl_mu_);
        window_start_ = window_start;
        window_end_ = window_end;
        done_ = 0;
        epoch_++;
    }
    cv_go_.notify_all();
    // The wake-up broadcast is coordinator bookkeeping, not guest
    // work: charge it as calc so it can't inflate busy/efficiency.
    i64 g = wallprof_.nowNs();
    wallprof_.barrierCalc(coord_ns, g);
    // Shard 0 runs on the coordinator's thread: one fewer worker, and
    // primary-engine thread-locals stay on the caller.
    trace::WallProfiler::DispatchCtx ctx;
    wallprof_.dispatchBegin(ctx, 0, g);
    u64 n = engines_[0]->runWindow(window_end);
    i64 e1 = wallprof_.nowNs();
    wallprof_.dispatchEnd(ctx, e1, window_start.ns(),
                          window_end.ns(), n);
    {
        std::unique_lock<std::mutex> lk(ctl_mu_);
        cv_done_.wait(lk, [&] { return done_ == engines_.size() - 1; });
    }
    // All workers parked: publish the barrier instant (workers split
    // their park into idle/wait against it) and fold this window's
    // per-shard event counts into the imbalance histogram.
    i64 e2 = wallprof_.nowNs();
    wallprof_.coordinatorWait(e1, e2);
    wallprof_.recordWindow();
    return e2;
}

void
ShardSet::run()
{
    startWorkers();
    running_ = true;
    i64 coord = wallprof_.nowNs();
    wallprof_.beginRun(coord);
    while (stepWindow(Engine::kNever, coord)) {
    }
    wallprof_.endRun(wallprof_.nowNs());
    running_ = false;
}

void
ShardSet::runUntil(TimePoint t)
{
    startWorkers();
    running_ = true;
    i64 coord = wallprof_.nowNs();
    wallprof_.beginRun(coord);
    while (stepWindow(t, coord)) {
    }
    wallprof_.endRun(wallprof_.nowNs());
    for (Engine *e : engines_)
        e->runUntil(t); // clock bump only; events <= t already ran
    running_ = false;
}

void
ShardSet::runFor(Duration d)
{
    runUntil(engines_[0]->now() + d);
}

bool
ShardSet::empty() const
{
    for (Engine *e : engines_)
        if (!e->empty())
            return false;
    std::lock_guard<std::mutex> lk(post_mu_);
    return pending_.empty();
}

std::size_t
ShardSet::pendingEvents() const
{
    std::size_t n = 0;
    for (Engine *e : engines_)
        n += e->pendingEvents();
    std::lock_guard<std::mutex> lk(post_mu_);
    return n + pending_.size();
}

std::size_t
ShardSet::cancelledBacklog() const
{
    std::size_t n = 0;
    for (Engine *e : engines_)
        n += e->cancelledBacklog();
    return n;
}

u64
ShardSet::eventsRun() const
{
    u64 n = 0;
    for (Engine *e : engines_)
        n += e->eventsRun();
    return n;
}

u64
ShardSet::dispatchChecksum() const
{
    u64 ck = 0;
    for (Engine *e : engines_)
        ck += e->dispatchChecksum();
    return ck;
}

TimePoint
ShardSet::maxNow() const
{
    TimePoint t;
    for (Engine *e : engines_)
        t = std::max(t, e->now());
    return t;
}

CrossHandle
crossPostAt(Engine &target, TimePoint when, Callback &&fn)
{
    if (ShardSet *s = target.shards())
        return s->postAt(target, when, std::move(fn));
    CrossHandle h;
    h.target = &target;
    h.when = when;
    h.event = target.at(when, std::move(fn));
    return h;
}

CrossHandle
crossPost(Engine &target, Duration delay, Callback &&fn)
{
    Engine *src = Engine::current();
    TimePoint base = src ? src->now() : target.now();
    return crossPostAt(target, base + delay, std::move(fn));
}

void
crossCancel(const CrossHandle &h)
{
    if (!h.valid())
        return;
    if (ShardSet *s = h.target->shards(); s && h.hash) {
        s->cancelCross(h);
        return;
    }
    if (h.event)
        h.target->cancel(h.event);
}

} // namespace mirage::sim
