/**
 * @file
 * Unit tests for the discrete-event engine and the Cpu server model.
 */

#include <gtest/gtest.h>

#include <array>
#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/cstruct.h"
#include "base/rand.h"
#include "sim/callback.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/engine.h"
#include "sim/poller.h"
#include "sim/shard.h"
#include "trace/telemetry.h"

namespace mirage::sim {
namespace {

TEST(EngineTest, RunsInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.after(Duration::millis(30), [&] { order.push_back(3); });
    e.after(Duration::millis(10), [&] { order.push_back(1); });
    e.after(Duration::millis(20), [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now().ns(), Duration::millis(30).ns());
}

TEST(EngineTest, TiesBreakByInsertion)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 5; i++)
        e.after(Duration::millis(1), [&, i] { order.push_back(i); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, CancelPreventsExecution)
{
    Engine e;
    bool ran = false;
    EventId id = e.after(Duration::millis(1), [&] { ran = true; });
    e.cancel(id);
    e.run();
    EXPECT_FALSE(ran);
}

TEST(EngineTest, NestedScheduling)
{
    Engine e;
    int fired = 0;
    e.after(Duration::millis(1), [&] {
        fired++;
        e.after(Duration::millis(1), [&] { fired++; });
    });
    e.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(e.now().ns(), Duration::millis(2).ns());
}

TEST(EngineTest, RunUntilLeavesLaterEvents)
{
    Engine e;
    int fired = 0;
    e.after(Duration::millis(5), [&] { fired++; });
    e.after(Duration::millis(15), [&] { fired++; });
    e.runUntil(TimePoint(Duration::millis(10).ns()));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.now().ns(), Duration::millis(10).ns());
    e.run();
    EXPECT_EQ(fired, 2);
}

TEST(EngineTest, LateScheduleClampsToNow)
{
    Engine e;
    e.after(Duration::millis(10), [] {});
    e.run();
    bool ran = false;
    e.at(TimePoint(0), [&] { ran = true; }); // in the past
    e.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(e.now().ns(), Duration::millis(10).ns());
}

TEST(EngineTest, CancelBookkeepingIsBounded)
{
    Engine e;
    EventId id = e.after(Duration::millis(1), [] {});
    e.run();
    // Cancelling an already-executed id must not accumulate state.
    for (int i = 0; i < 1000; i++)
        e.cancel(id);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    // Nor may ids that never existed.
    for (EventId bogus = 1000; bogus < 2000; bogus++)
        e.cancel(bogus);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    EXPECT_EQ(e.pendingEvents(), 0u);
    EXPECT_TRUE(e.empty());
}

TEST(EngineTest, CancelledSlotsAreReclaimedOnDispatch)
{
    Engine e;
    bool ran = false;
    EventId id = e.after(Duration::millis(5), [&] { ran = true; });
    e.after(Duration::millis(10), [] {});
    e.cancel(id);
    e.cancel(id); // idempotent while pending
    EXPECT_EQ(e.cancelledBacklog(), 1u);
    e.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    EXPECT_EQ(e.pendingEvents(), 0u);
}

/**
 * Replicates the causal key the engine gives each event — (when,
 * strand, idx), where strand is the scheduling event's identity hash
 * (0 at root) and idx numbers the children of one dispatch — and checks
 * that every dispatch runs the least pending key.
 */
class KeyModel
{
  public:
    struct Key
    {
        i64 when;
        u64 strand;
        u64 idx;
        auto operator<=>(const Key &) const = default;
    };

    Engine engine;
    std::set<Key> pending;
    std::vector<Key> fired;

    using Body = std::function<void(KeyModel &)>;

    EventId
    schedule(Duration d, Body body)
    {
        Key k{(engine.now() + d).ns(), in_event_ ? hash_ : 0,
              in_event_ ? child_++ : root_child_++};
        pending.insert(k);
        EventId id = engine.after(d, [this, k, body = std::move(body)] {
            ASSERT_FALSE(pending.empty());
            EXPECT_TRUE(k == *pending.begin())
                << "dispatched (" << k.when << ", " << k.strand << ", "
                << k.idx << ") before a smaller pending key";
            pending.erase(k);
            fired.push_back(k);
            in_event_ = true;
            hash_ = mixKey(k.strand, k.idx);
            child_ = 0;
            body(*this);
            in_event_ = false;
        });
        keys_[id] = k;
        return id;
    }

    /** Cancel @p id; a no-op in the model once it fired. */
    void
    cancel(EventId id)
    {
        engine.cancel(id);
        if (auto it = keys_.find(id); it != keys_.end())
            pending.erase(it->second);
    }

  private:
    bool in_event_ = false;
    u64 hash_ = 0;
    u64 child_ = 0;
    u64 root_child_ = 0;
    std::map<EventId, Key> keys_;
};

TEST(EngineTest, DispatchFollowsCausalKeyUnderInterleaving)
{
    KeyModel m;
    Rng rng(7);
    std::vector<EventId> ids;
    // Each event schedules up to three children, many at the same
    // instant, and cancels an earlier id (pending, fired or recycled).
    std::function<void(KeyModel &, int)> body = [&](KeyModel &km,
                                                    int depth) {
        if (depth < 4) {
            int kids = int(rng.below(4));
            for (int c = 0; c < kids; c++) {
                Duration d = Duration::millis(i64(rng.below(3)));
                ids.push_back(km.schedule(d, [&, depth](KeyModel &k) {
                    body(k, depth + 1);
                }));
            }
        }
        if (!ids.empty() && rng.below(3) == 0)
            km.cancel(ids[rng.below(ids.size())]);
    };
    for (int i = 0; i < 60; i++) {
        Duration d = Duration::millis(i64(rng.below(6)));
        ids.push_back(m.schedule(d, [&](KeyModel &k) { body(k, 0); }));
        if (i % 7 == 3)
            m.cancel(ids[rng.below(ids.size())]);
    }
    m.engine.run();
    EXPECT_TRUE(m.pending.empty()) << "an uncancelled event never ran";
    EXPECT_EQ(m.engine.eventsRun(), m.fired.size());
    EXPECT_GT(m.fired.size(), 100u);
    EXPECT_EQ(m.engine.pendingEvents(), 0u);
    EXPECT_EQ(m.engine.cancelledBacklog(), 0u);
}

TEST(EngineTest, StaleAndRecycledIdsAreNoOps)
{
    Engine e;
    EventId first = e.after(Duration::millis(1), [] {});
    e.run();
    // The next event reuses the fired event's slot under a new
    // generation: the old id must not reach it.
    bool ran = false;
    EventId second = e.after(Duration::millis(1), [&] { ran = true; });
    EXPECT_NE(first, second);
    EXPECT_EQ(first & 0xffffffffu, second & 0xffffffffu);
    e.cancel(first);
    e.cancel(0);
    e.cancel(~EventId(0));
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    e.run();
    EXPECT_TRUE(ran);
    // Cancelling after dispatch is equally inert.
    e.cancel(second);
    EXPECT_EQ(e.cancelledBacklog(), 0u);
    EXPECT_TRUE(e.empty());
}

TEST(EngineTest, CallbackDiesOnDispatchOrWhenItsCancelledEntryPops)
{
    Engine e;
    auto token = std::make_shared<int>(0);
    e.after(Duration::millis(1), [token] {});
    EXPECT_EQ(token.use_count(), 2);
    e.run();
    EXPECT_EQ(token.use_count(), 1) << "dispatched callback still alive";

    EventId id = e.after(Duration::millis(5), [token] {});
    e.after(Duration::millis(1), [] {});
    e.after(Duration::millis(3), [] {});
    e.cancel(id);
    // Cancelled but still queued behind the live 3 ms event.
    e.runUntil(TimePoint(Duration::millis(2).ns()));
    EXPECT_EQ(token.use_count(), 2);
    e.run();
    EXPECT_EQ(token.use_count(), 1) << "cancelled callback outlived its pop";
    EXPECT_EQ(e.cancelledBacklog(), 0u);
}

// ---- Poll trains ------------------------------------------------------------

/**
 * A ring owner stand-in for the poll-train tests: `work` items wait in
 * its "ring" and a drain takes them all. An eager rig's readiness test
 * always says yes, so the engine runs every one of its polls — the
 * reference that a rig whose idle polls are credited must match.
 */
struct PollRig
{
    Engine &e;
    bool eager;
    u64 work = 0;
    u64 drained = 0;
    bool race_at_rearm = false;      //!< work "raced in" at the next rearm
    std::vector<i64> polls_run;      //!< times a poll's drain really ran
    std::vector<bool> publish_after; //!< per publish: its poll ran first
    std::optional<Poller> poller;

    PollRig(Engine &engine, bool eager_ref) : e(engine), eager(eager_ref)
    {
        build();
    }

    void
    build()
    {
        poller.emplace(
            e, nullptr, [this] { return eager || work > 0; },
            [this] {
                polls_run.push_back(e.now().ns());
                bool any = work > 0;
                drained += work;
                work = 0;
                return any;
            },
            [this] {
                if (race_at_rearm) {
                    race_at_rearm = false;
                    work++;
                }
                return work > 0;
            });
    }

    /** Producer: publish one item; notify (the owner's event handler
     *  drains and kicks) unless the poller keeps the event parked. */
    void
    publish()
    {
        if (!poller)
            return;
        publish_after.push_back(!polls_run.empty() &&
                                polls_run.back() == e.now().ns());
        work++;
        if (!poller->active())
            e.after(Duration::micros(1), [this] {
                if (!poller)
                    return;
                drained += work;
                work = 0;
                poller->kick();
            });
    }
};

TimePoint
us(i64 n)
{
    return TimePoint(Duration::micros(n).ns());
}

/**
 * Schedule the shared scenario on @p e: busy stretches with publishes
 * landing on poll instants (each from its own spawning event, so its
 * strand orders it before or after the poll due then), a kick in an
 * idle stretch, work racing the re-arm that follows expiry, and the
 * poller destroyed mid-train, its slot reused, then rebuilt.
 */
void
scriptPollScenario(Engine &e, PollRig &rig)
{
    auto publishAt = [&e, &rig](i64 t_us) {
        e.at(us(t_us - 2), [&e, &rig, t_us] {
            e.at(us(t_us), [&rig] { rig.publish(); });
        });
    };
    e.at(us(1), [&rig] { rig.publish(); });
    for (i64 t = 10; t <= 300; t += 7)
        publishAt(t);
    e.at(us(350), [&rig] { rig.poller->kick(); }); // mid idle stretch
    e.at(us(400), [&rig] { rig.race_at_rearm = true; });
    e.at(us(600), [&rig] { rig.publish(); });
    publishAt(610);
    publishAt(633);
    e.at(us(700), [&e, &rig] {
        rig.poller.reset(); // mid-train
        for (int i = 0; i < 3; i++)
            e.after(Duration::micros(1 + i), [] {});
    });
    e.at(us(750), [&rig] {
        rig.build();
        rig.publish();
    });
    publishAt(766);
}

struct PollSnapshot
{
    u64 events;
    u64 checksum;
    std::size_t pending;
    i64 now;
    u64 work;
    u64 drained;
    std::vector<std::pair<i64, std::string>> dispatches;

    auto operator<=>(const PollSnapshot &) const = default;
};

PollSnapshot
snapshot(Engine &e, const PollRig &rig, const trace::Telemetry *tel)
{
    PollSnapshot s{e.eventsRun(), e.dispatchChecksum(), e.pendingEvents(),
                   e.now().ns(), rig.work, rig.drained, {}};
    if (tel)
        for (const auto &ev : tel->tracer.events())
            if (std::string(ev.name) == "dispatch")
                s.dispatches.emplace_back(ev.ts_ns, ev.args);
    return s;
}

TEST(PollTrainTest, CreditedRunMatchesEagerReferenceAtEveryBoundary)
{
    trace::Telemetry tel_ref, tel;
    tel_ref.tracer.enable();
    tel.tracer.enable();
    Engine ref_engine(&tel_ref), engine(&tel);
    PollRig ref(ref_engine, true), rig(engine, false);
    scriptPollScenario(ref_engine, ref);
    scriptPollScenario(engine, rig);

    for (i64 t = 0; t <= 1000; t += 3) {
        ref_engine.runUntil(us(t));
        engine.runUntil(us(t));
        ASSERT_EQ(snapshot(engine, rig, &tel),
                  snapshot(ref_engine, ref, &tel_ref))
            << "diverged by t=" << t << " us";
    }
    EXPECT_TRUE(engine.empty());
    EXPECT_EQ(rig.drained, 7u + 42u) << "every published item drained";

    // The scenario exercised what it claims to.
    u64 before = 0, after = 0;
    for (bool a : ref.publish_after)
        (a ? after : before)++;
    EXPECT_GT(before, 0u) << "no publish ordered before its instant's poll";
    EXPECT_GT(after, 0u) << "no publish ordered after its instant's poll";
    EXPECT_LT(rig.polls_run.size() * 4, ref.polls_run.size())
        << "idle polls were run, not credited";
}

TEST(PollTrainTest, CreditedShardsMatchEagerShardsInEveryWindow)
{
    Engine ref_primary, primary;
    ShardSet ref_set(ref_primary, 2), set(primary, 2);
    std::vector<std::unique_ptr<PollRig>> ref_rigs, rigs;
    for (unsigned s = 0; s < 2; s++) {
        ref_rigs.push_back(std::make_unique<PollRig>(ref_set.shard(s), true));
        rigs.push_back(std::make_unique<PollRig>(set.shard(s), false));
        scriptPollScenario(ref_set.shard(s), *ref_rigs.back());
        scriptPollScenario(set.shard(s), *rigs.back());
    }
    for (i64 t = 0; t <= 1000; t += 5) {
        ref_set.runUntil(us(t));
        set.runUntil(us(t));
        for (unsigned s = 0; s < 2; s++)
            ASSERT_EQ(snapshot(set.shard(s), *rigs[s], nullptr),
                      snapshot(ref_set.shard(s), *ref_rigs[s], nullptr))
                << "shard " << s << " diverged by t=" << t << " us";
    }
    EXPECT_EQ(set.eventsRun(), ref_set.eventsRun());
    EXPECT_TRUE(set.empty());
}

TEST(PollTrainTest, CancelledTrainFreesItsSlotUnderTheCaughtUpGeneration)
{
    // A train credits polls while its slot's generation lags; the id
    // handed out at scheduling still cancels it, and once the cancel
    // settles the next tenant's id is what the eager engine mints.
    auto run = [](bool eager) {
        Engine e;
        PollRig rig(e, eager);
        rig.publish();
        e.runUntil(us(50)); // ~48 idle polls
        rig.poller.reset();
        e.run();
        return e.after(Duration::micros(1), [] {});
    };
    EXPECT_EQ(run(false), run(true));
}

// ---- Callback ---------------------------------------------------------------

/** Counts the destructions of the one live copy it travels as. */
struct DeathProbe
{
    int *destroyed;
    bool owner = true;

    explicit DeathProbe(int *d) : destroyed(d) {}
    DeathProbe(DeathProbe &&o) noexcept
        : destroyed(o.destroyed), owner(o.owner)
    {
        o.owner = false;
    }
    DeathProbe(const DeathProbe &) = delete;
    ~DeathProbe()
    {
        if (owner)
            ++*destroyed;
    }
};

/** A closure of sizeof(DeathProbe) + Pad bytes that bumps @p ran. */
template <std::size_t Pad>
auto
probeClosure(int *destroyed, int *ran)
{
    return [probe = DeathProbe(destroyed), ran,
            pad = std::array<char, Pad>{}] { (*ran)++; };
}

using InlineClosure = decltype(probeClosure<16>(nullptr, nullptr));
using HeapClosure = decltype(probeClosure<48>(nullptr, nullptr));
static_assert(sizeof(InlineClosure) == Callback::inlineBytes);
static_assert(Callback::storedInline<InlineClosure>());
static_assert(sizeof(HeapClosure) > Callback::inlineBytes);
static_assert(!Callback::storedInline<HeapClosure>());

// The per-port bridge delivery and the stack's frame input capture a
// pointer and a Cstruct; they must not allocate per event.
static_assert(Callback::storedInline<decltype([p = (void *)nullptr,
                                               c = Cstruct()] {})>());

template <typename Closure>
void
expectEachPathDestroysOnce(Closure (*make)(int *, int *))
{
    int destroyed = 0, ran = 0;
    {
        Engine e;
        e.after(Duration::millis(1), make(&destroyed, &ran));
        e.run();
        EXPECT_EQ(ran, 1);
        EXPECT_EQ(destroyed, 1) << "dispatched closure not destroyed once";

        EventId id = e.after(Duration::millis(5), make(&destroyed, &ran));
        e.after(Duration::millis(3), [] {});
        e.cancel(id);
        e.runUntil(TimePoint(Duration::millis(2).ns()));
        EXPECT_EQ(destroyed, 1) << "cancelled closure died before its pop";
        e.run();
        EXPECT_EQ(ran, 1);
        EXPECT_EQ(destroyed, 2) << "cancelled closure not destroyed once";

        // Grow the slot table under a queued closure, then leave it
        // queued when the engine dies.
        e.after(Duration::millis(1), make(&destroyed, &ran));
        for (int i = 0; i < 100; i++)
            e.after(Duration::millis(2), [] {});
        EXPECT_EQ(destroyed, 2);
    }
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(destroyed, 3) << "queued closure not destroyed once with engine";
}

TEST(CallbackTest, InlineClosureIsDestroyedExactlyOnce)
{
    expectEachPathDestroysOnce(&probeClosure<16>);
}

TEST(CallbackTest, HeapClosureIsDestroyedExactlyOnce)
{
    expectEachPathDestroysOnce(&probeClosure<48>);
}

TEST(CallbackTest, MoveOnlyCaptureRuns)
{
    Engine e;
    int got = 0;
    auto owned = std::make_unique<int>(7);
    e.after(Duration::millis(1), [owned = std::move(owned), &got] {
        got = *owned;
    });
    e.run();
    EXPECT_EQ(got, 7);

    Callback a = [owned = std::make_unique<int>(9), &got] { got = *owned; };
    Callback b = std::move(a);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(got, 9);
}

TEST(CallbackTest, EmptyFunctionsConvertToEmptyCallbacks)
{
    EXPECT_FALSE(Callback(std::function<void()>()));
    EXPECT_FALSE(Callback(static_cast<void (*)()>(nullptr)));
    EXPECT_FALSE(Callback(nullptr));
    EXPECT_TRUE(Callback(std::function<void()>([] {})));

    Engine e;
    Cpu cpu(e, "test");
    std::function<void()> none;
    cpu.submit(Duration::micros(5), none);
    EXPECT_EQ(e.pendingEvents(), 0u) << "an empty completion was scheduled";
    EXPECT_EQ(cpu.busyTime().ns(), Duration::micros(5).ns());
}

TEST(CpuTest, SerialisesWork)
{
    Engine e;
    Cpu cpu(e, "test");
    std::vector<i64> done_at;
    cpu.submit(Duration::millis(10),
               [&] { done_at.push_back(e.now().ns()); });
    cpu.submit(Duration::millis(5),
               [&] { done_at.push_back(e.now().ns()); });
    e.run();
    ASSERT_EQ(done_at.size(), 2u);
    EXPECT_EQ(done_at[0], Duration::millis(10).ns());
    EXPECT_EQ(done_at[1], Duration::millis(15).ns()) <<
        "second job must queue behind the first";
}

TEST(CpuTest, IdleGapsDoNotAccumulate)
{
    Engine e;
    Cpu cpu(e, "test");
    i64 done = 0;
    cpu.submit(Duration::millis(1), [&] { done = e.now().ns(); });
    e.run();
    // 100 ms of idle virtual time.
    e.after(Duration::millis(100), [] {});
    e.run();
    cpu.submit(Duration::millis(1), [&] { done = e.now().ns(); });
    e.run();
    EXPECT_EQ(done, Duration::millis(102).ns()) <<
        "work after idle starts at now, not at freeAt from the past";
    EXPECT_EQ(cpu.busyTime().ns(), Duration::millis(2).ns());
}

TEST(CpuTest, UtilisationSaturatesAtOne)
{
    Engine e;
    Cpu cpu(e, "test");
    for (int i = 0; i < 100; i++)
        cpu.submit(Duration::millis(10), nullptr);
    e.run();
    EXPECT_DOUBLE_EQ(
        cpu.utilisation(TimePoint(0), TimePoint(0) + Duration::millis(500)),
        1.0);
}

TEST(CostModelTest, PaperStructuralInvariants)
{
    const CostModel &c = costs();
    // PV page-table updates go through the hypervisor: dearer than
    // native ones. This asymmetry drives Fig 7a's ordering.
    EXPECT_GT(c.ptUpdatePv.ns(), c.ptUpdateNative.ns());
    // A hypercall is a deeper crossing than a syscall.
    EXPECT_GT(c.hypercall.ns(), c.syscall.ns());
    // Switching VMs costs more than switching processes.
    EXPECT_GT(c.vmSwitch.ns(), c.processSwitch.ns());
    // One superpage map must beat mapping 512 individual pages.
    EXPECT_LT(c.superpageMap.ns(), c.ptUpdateNative.ns() * 512);
    // The type-safety tax is a modest constant factor, not an order
    // of magnitude (the paper's central performance claim).
    EXPECT_GT(c.safetyTaxFactor, 1.0);
    EXPECT_LT(c.safetyTaxFactor, 2.0);
}

} // namespace
} // namespace mirage::sim
