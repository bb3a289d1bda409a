#include "sim/engine.h"

#include "sim/shard.h"

#include "base/logging.h"

namespace mirage::sim {

thread_local Engine *Engine::current_ = nullptr;

Engine::Slot *
Engine::slotFor(EventId id)
{
    u32 idx = u32(id & 0xffffffffu);
    if (idx == 0 || idx > slots_.size())
        return nullptr;
    Slot &s = slots_[idx - 1];
    if (s.gen != u32(id >> 32))
        return nullptr; // slot recycled since this id was minted
    return &s;
}

void
Engine::releaseSlot(u32 idx)
{
    Slot &s = slots_[idx];
    s.gen++; // invalidate outstanding ids naming this slot
    s.state = SlotState::Free;
    free_slots_.push_back(idx);
}

void
Engine::KeyHeap::push(const Key &k)
{
    keys_.push_back(k);
    std::size_t i = keys_.size() - 1;
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!(keys_[parent] > k))
            break;
        keys_[i] = keys_[parent];
        i = parent;
    }
    keys_[i] = k;
}

void
Engine::KeyHeap::pop()
{
    Key last = keys_.back();
    keys_.pop_back();
    std::size_t n = keys_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t least = first;
        std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; c++)
            if (keys_[least] > keys_[c])
                least = c;
        if (!(last > keys_[least]))
            break;
        keys_[i] = keys_[least];
        i = least;
    }
    keys_[i] = last;
}

CrossKey
Engine::nextKey()
{
    CrossKey k;
    k.strand = cur_hash_;
    k.idx = next_child_++;
    k.hash = mixKey(k.strand, k.idx);
    return k;
}

EventId
Engine::atKeyed(TimePoint t, const CrossKey &key, u64 flow, u32 pscope,
                Callback &&fn)
{
    if (t < now_)
        t = now_; // late scheduling runs as soon as possible
    u32 idx;
    if (!free_slots_.empty()) {
        idx = free_slots_.back();
        free_slots_.pop_back();
    } else {
        idx = u32(slots_.size());
        slots_.push_back(Slot{});
    }
    Slot &s = slots_[idx];
    s.fn = std::move(fn);
    s.hash = key.hash;
    s.flow = flow;
    s.pscope = pscope;
    s.state = SlotState::Pending;
    EventId id = (u64(s.gen) << 32) | (idx + 1);
    live_++;
    queue_.push(Key{t, key.strand, key.idx, idx});
    return id;
}

EventId
Engine::at(TimePoint t, Callback &&fn)
{
    u64 flow = telemetry_ ? telemetry_->flows.current() : 0;
    u32 pscope = telemetry_ ? telemetry_->profiler.current() : 0;
    // Root-context scheduling (setup code, no event dispatching) on a
    // sharded engine draws its key from the *primary* shard's root
    // counter: setup runs in program order on one thread, so the key
    // sequence — and with it every derived causal hash — is identical
    // no matter which shard each domain was placed on.
    CrossKey key = (!current_ && shards_) ? rootKeyFromSet() : nextKey();
    return atKeyed(t, key, flow, pscope, std::move(fn));
}

CrossKey
Engine::rootKeyFromSet()
{
    return shards_->rootKey();
}

EventId
Engine::after(Duration d, Callback &&fn)
{
    return at(now_ + d, std::move(fn));
}

void
Engine::cancel(EventId id)
{
    // The generation check makes cancel safe against fired, recycled
    // or invented ids: only an id still naming its live slot can flip
    // it to Cancelled.
    Slot *s = slotFor(id);
    if (!s || s->state != SlotState::Pending)
        return;
    s->state = SlotState::Cancelled;
    cancelled_count_++;
}

Engine::Engine(trace::Telemetry *telemetry, check::Checker *checker)
    : telemetry_(telemetry), checker_(checker),
      c_dispatched_(trace::total(metrics(), "sim.events_run")),
      c_cancelled_(trace::total(metrics(), "sim.events_cancelled"))
{
}

bool
Engine::settleTop()
{
    while (!queue_.empty()) {
        u32 idx = queue_.top().slot;
        Slot &s = slots_[idx];
        if (s.state != SlotState::Cancelled)
            return true;
        // Reached the cancelled slot: drop all bookkeeping for it. The
        // callback dies after the pop, as if it had been queued itself.
        Callback dead = std::move(s.fn);
        releaseSlot(idx);
        cancelled_count_--;
        live_--;
        queue_.pop();
        trace::bump(c_cancelled_);
    }
    return false;
}

bool
Engine::dispatchOne(bool bounded, TimePoint limit)
{
    if (!settleTop())
        return false;
    const Key &top = queue_.top();
    if (bounded && top.when > limit)
        return false;
    TimePoint when = top.when;
    u32 idx = top.slot;
    queue_.pop();
    Slot &s = slots_[idx];
    Callback fn = std::move(s.fn);
    u64 hash = s.hash;
    u64 flow = s.flow;
    u32 pscope = s.pscope;
    EventId id = (u64(s.gen) << 32) | (idx + 1);
    releaseSlot(idx);
    live_--;
    now_ = when;
    events_run_++;
    checksum_ += mixKey(u64(when.ns()), hash);
    trace::bump(c_dispatched_);
    if (telemetry_ && telemetry_->tracer.enabled())
        telemetry_->tracer.instant(
            trace::Cat::Engine, "dispatch", now_, 0,
            trace::jsonObject("id", id));
    // Restore the scheduling context's flow and profiler scope for the
    // duration of the callback; anything it schedules inherits them —
    // including the causal key context, so children order
    // deterministically under (when, strand, idx) whatever thread runs
    // this. Both scopes are null-safe.
    trace::FlowScope fscope(flows(), flow);
    trace::ProfRestore prestore(profiler(), pscope);
    Engine *prev_engine = current_;
    u64 prev_hash = cur_hash_;
    u64 prev_child = next_child_;
    current_ = this;
    cur_hash_ = hash;
    next_child_ = 0;
    fn();
    cur_hash_ = prev_hash;
    next_child_ = prev_child;
    current_ = prev_engine;
    return true;
}

bool
Engine::step()
{
    return dispatchOne(false, TimePoint());
}

void
Engine::run()
{
    while (step()) {
    }
}

void
Engine::runUntil(TimePoint t)
{
    while (dispatchOne(true, t)) {
    }
    if (now_ < t)
        now_ = t;
}

void
Engine::runFor(Duration d)
{
    runUntil(now_ + d);
}

u64
Engine::runWindow(TimePoint end)
{
    // Events at exactly `end` belong to the next window; the clock is
    // left on the last dispatched event so barrier-time bookkeeping
    // (nextEventTime, cross-post lookahead checks) sees event time.
    u64 n = 0;
    while (dispatchOne(true, TimePoint(end.ns() - 1)))
        n++;
    return n;
}

TimePoint
Engine::nextEventTime()
{
    return settleTop() ? queue_.top().when : kNever;
}

} // namespace mirage::sim
