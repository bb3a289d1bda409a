#include "trace/slo.h"

#include "base/logging.h"
#include "trace/telemetry.h"

namespace mirage::trace {

void
SloTracker::setTarget(const std::string &kind, SloTarget target)
{
    std::lock_guard<std::mutex> lk(mu_);
    State s;
    s.target = target;
    states_[kind] = std::move(s);
}

u64
SloTracker::alerts() const
{
    std::lock_guard<std::mutex> lk(mu_);
    u64 n = 0;
    for (const auto &[kind, s] : states_)
        n += s.alerts;
    return n;
}

const SloTracker::State *
SloTracker::find(const std::string &kind) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = states_.find(kind);
    return it == states_.end() ? nullptr : &it->second;
}

i64
SloTracker::sliceWidthNs(const State &s)
{
    i64 w = s.target.fastWindow.ns() / 8;
    return w > 0 ? w : 1;
}

void
SloTracker::advance(State &s, TimePoint ts)
{
    i64 width = sliceWidthNs(s);
    i64 index = ts.ns() / width;
    if (s.slices.empty() || s.slices.back().index < index)
        s.slices.push_back(State::Slice{index, 0, 0});
    // Slices older than the slow window can never matter again.
    i64 slow_slices = (s.target.slowWindow.ns() + width - 1) / width + 1;
    while (!s.slices.empty() &&
           s.slices.front().index < index - slow_slices)
        s.slices.pop_front();
}

namespace {

double
burnOver(const SloTracker::State &s, i64 now_ns, i64 window_ns,
         i64 width)
{
    i64 from = (now_ns - window_ns) / width;
    u64 good = 0, bad = 0;
    for (const auto &sl : s.slices) {
        if (sl.index < from)
            continue;
        good += sl.good;
        bad += sl.bad;
    }
    if (good + bad == 0)
        return 0;
    double budget = 1.0 - s.target.objective;
    if (budget <= 0)
        budget = 1e-9;
    return (double(bad) / double(good + bad)) / budget;
}

} // namespace

void
SloTracker::check(const std::string &kind, State &s, TimePoint ts,
                  PendingAlerts &fired)
{
    i64 width = sliceWidthNs(s);
    s.fast_burn = burnOver(s, ts.ns(), s.target.fastWindow.ns(), width);
    s.slow_burn = burnOver(s, ts.ns(), s.target.slowWindow.ns(), width);
    bool firing = s.fast_burn >= s.target.burnThreshold &&
                  s.slow_burn >= s.target.burnThreshold;
    if (firing && !s.alerting) {
        s.alerting = true;
        s.alerts++;
        std::string detail = strprintf(
            "%s: burn rate %.1fx over %lld ms and %.1fx over %lld ms "
            "(threshold %.1fx, objective %.4f, latency target %llu us)",
            kind.c_str(), s.fast_burn,
            (long long)(s.target.fastWindow.ns() / 1'000'000),
            s.slow_burn,
            (long long)(s.target.slowWindow.ns() / 1'000'000),
            s.target.burnThreshold, s.target.objective,
            (unsigned long long)(s.target.latencyTargetNs / 1000));
        fired.push_back(std::move(detail));
    } else if (!firing && s.alerting &&
               s.fast_burn < s.target.burnThreshold) {
        // Fast-window recovery re-arms the alert; the slow window may
        // stay hot long after the breach is fixed.
        s.alerting = false;
    }
}

void
SloTracker::record(const std::string &kind, u64 latency_ns, bool failed,
                   TimePoint ts)
{
    PendingAlerts fired;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = states_.find(kind);
        if (it == states_.end())
            return;
        State &s = it->second;
        advance(s, ts);
        bool good = !failed && (s.target.latencyTargetNs == 0 ||
                                latency_ns <= s.target.latencyTargetNs);
        if (good) {
            s.good++;
            s.slices.back().good++;
        } else {
            s.bad++;
            s.slices.back().bad++;
        }
        check(kind, s, ts, fired);
    }
    for (const std::string &detail : fired)
        t_.profiler.alert("slo_burn", detail);
}

void
SloTracker::evaluate(TimePoint ts)
{
    PendingAlerts fired;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &[kind, s] : states_) {
            advance(s, ts);
            check(kind, s, ts, fired);
        }
    }
    for (const std::string &detail : fired)
        t_.profiler.alert("slo_burn", detail);
}

std::string
SloTracker::json() const
{
    std::lock_guard<std::mutex> lk(mu_);
    JsonWriter w;
    w.beginArray();
    for (const auto &[kind, s] : states_) {
        w.beginObject().field("kind", kind);
        w.key("objective").fixed(s.target.objective, 4);
        w.fields("latency_target_ns", s.target.latencyTargetNs, "good",
                 s.good, "bad", s.bad);
        w.key("fast_burn").fixed(s.fast_burn, 2);
        w.key("slow_burn").fixed(s.slow_burn, 2);
        w.fields("alerting", s.alerting, "alerts", s.alerts);
        w.endObject();
    }
    w.endArray();
    return w.take();
}

} // namespace mirage::trace
