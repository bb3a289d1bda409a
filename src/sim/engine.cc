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

template <class T>
void
Engine::QuadHeap<T>::push(const T &item)
{
    items_.push_back(item);
    std::size_t i = items_.size() - 1;
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!(items_[parent] > item))
            break;
        items_[i] = items_[parent];
        i = parent;
    }
    items_[i] = item;
}

template <class T>
void
Engine::QuadHeap<T>::pop()
{
    T last = items_.back();
    items_.pop_back();
    if (!items_.empty())
        siftDown(last);
}

template <class T>
void
Engine::QuadHeap<T>::siftDown(T item)
{
    std::size_t n = items_.size();
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t least = first;
        std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; c++)
            if (items_[least] > items_[c])
                least = c;
        if (!(item > items_[least]))
            break;
        items_[i] = items_[least];
        i = least;
    }
    items_[i] = item;
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

u32
Engine::claimSlot(Callback &&fn, u64 hash, u64 flow, u32 pscope)
{
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
    s.hash = hash;
    s.flow = flow;
    s.pscope = pscope;
    s.state = SlotState::Pending;
    live_++;
    return idx;
}

EventId
Engine::idOf(u32 idx, u32 credited) const
{
    // A train's slot generation lags by the polls it credited: the id
    // is the one the latest of those polls would have carried.
    return (u64(slots_[idx].gen + credited) << 32) | (idx + 1);
}

EventId
Engine::atKeyed(TimePoint t, const CrossKey &key, u64 flow, u32 pscope,
                Callback &&fn)
{
    if (t < now_)
        t = now_; // late scheduling runs as soon as possible
    u32 idx = claimSlot(std::move(fn), key.hash, flow, pscope);
    queue_.push(Key{t, key.strand, key.idx, idx});
    return idOf(idx, 0);
}

CrossKey
Engine::scheduleKey()
{
    // Root-context scheduling (setup code, no event dispatching) on a
    // sharded engine draws its key from the *primary* shard's root
    // counter: setup runs in program order on one thread, so the key
    // sequence — and with it every derived causal hash — is identical
    // no matter which shard each domain was placed on.
    return (!current_ && shards_) ? rootKeyFromSet() : nextKey();
}

EventId
Engine::at(TimePoint t, Callback &&fn)
{
    u64 flow = telemetry_ ? telemetry_->flows.current() : 0;
    u32 pscope = telemetry_ ? telemetry_->profiler.current() : 0;
    return atKeyed(t, scheduleKey(), flow, pscope, std::move(fn));
}

EventId
Engine::poll(Duration period, Callback &&fn, const PollHook &hook)
{
    u64 flow = telemetry_ ? telemetry_->flows.current() : 0;
    u32 pscope = telemetry_ ? telemetry_->profiler.current() : 0;
    CrossKey key = scheduleKey();
    u32 idx = claimSlot(std::move(fn), key.hash, flow, pscope);
    trains_.push(Train{Key{now_ + period, key.strand, key.idx, idx},
                       period, hook});
    return idOf(idx, 0);
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

Engine::Head
Engine::settleTop()
{
    for (;;) {
        Head head;
        if (trains_.empty())
            head = queue_.empty() ? Head::None : Head::Event;
        else if (queue_.empty() || queue_.top() > trains_.top().key)
            head = Head::Poll;
        else
            head = Head::Event;
        if (head == Head::None)
            return head;
        const Key &top = headKey(head);
        u32 idx = top.slot;
        Slot &s = slots_[idx];
        if (s.state != SlotState::Cancelled)
            return head;
        // Reached the cancelled slot: drop all bookkeeping for it. The
        // callback dies after the pop, as if it had been queued itself;
        // a train's generation catches up with the polls it credited.
        Callback dead = std::move(s.fn);
        s.gen += top.credited;
        releaseSlot(idx);
        cancelled_count_--;
        live_--;
        if (head == Head::Poll)
            trains_.pop();
        else
            queue_.pop();
        trace::bump(c_cancelled_);
    }
}

void
Engine::creditPoll()
{
    Train &t = trains_.top();
    Slot &s = slots_[t.key.slot];
    events_run_++;
    checksum_ += mixKey(u64(now_.ns()), s.hash);
    trace::bump(c_dispatched_);
    if (telemetry_) {
        if (telemetry_->tracer.enabled())
            telemetry_->tracer.instant(
                trace::Cat::Engine, "dispatch", now_, 0,
                trace::jsonObject("id", idOf(t.key.slot, t.key.credited)));
        // The drain would have entered its scope: intern it, so the
        // profiler's scope tree (and the order of its root children)
        // grows exactly as if the poll had run.
        if (t.hook.scope && telemetry_->profiler.enabled()) {
            trace::ProfRestore prestore(profiler(), s.pscope);
            trace::ProfScope pscope(profiler(), t.hook.scope);
        }
    }
    // The poll the real one schedules: after(period), the first child
    // of its (otherwise empty) dispatch.
    t.key.when = now_ + t.period;
    t.key.strand = s.hash;
    t.key.idx = 0;
    t.key.credited++;
    s.hash = mixKey(s.hash, 0);
    trains_.topChanged();
}

bool
Engine::dispatchOne(bool bounded, TimePoint limit)
{
    Head head = settleTop();
    if (head == Head::None)
        return false;
    const Key &top = headKey(head);
    if (bounded && top.when > limit)
        return false;
    TimePoint when = top.when;
    u32 idx = top.slot;
    u32 credited = top.credited;
    now_ = when;
    if (head == Head::Poll) {
        const PollHook &hook = trains_.top().hook;
        if (hook.idle(hook.ctx)) {
            creditPoll();
            return true;
        }
        trains_.pop();
    } else {
        queue_.pop();
    }
    Slot &s = slots_[idx];
    Callback fn = std::move(s.fn);
    u64 hash = s.hash;
    u64 flow = s.flow;
    u32 pscope = s.pscope;
    EventId id = idOf(idx, credited);
    s.gen += credited;
    releaseSlot(idx);
    live_--;
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
    Head head = settleTop();
    return head == Head::None ? kNever : headKey(head).when;
}

} // namespace mirage::sim
