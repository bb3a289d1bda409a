#include "trace/trace.h"

#include <algorithm>
#include <cstdio>

#include "base/logging.h"

namespace mirage::trace {

const char *
catName(Cat cat)
{
    switch (cat) {
      case Cat::Engine:
        return "engine";
      case Cat::Cpu:
        return "cpu";
      case Cat::Hypervisor:
        return "hypervisor";
      case Cat::Runtime:
        return "runtime";
      case Cat::Net:
        return "net";
      case Cat::Storage:
        return "storage";
      case Cat::App:
        return "app";
      case Cat::Flow:
        return "flow";
      case Cat::Boot:
        return "boot";
    }
    return "unknown";
}

Status
writeFile(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return Status(Error(Error::Kind::Io, "cannot open " + path));
    std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    if (n != body.size())
        return Status(Error(Error::Kind::Io, "short write to " + path));
    return Status::success();
}

u32
TraceRecorder::track(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = track_index_.find(name);
    if (it != track_index_.end())
        return it->second;
    u32 id = u32(tracks_.size());
    tracks_.push_back(name);
    track_index_.emplace(name, id);
    return id;
}

void
TraceRecorder::push(Event &&e)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (flight_cap_ == 0) {
        events_.push_back(std::move(e));
        return;
    }
    if (events_.size() < flight_cap_) {
        events_.push_back(std::move(e));
        head_ = events_.size() % flight_cap_;
        return;
    }
    events_[head_] = std::move(e);
    head_ = (head_ + 1) % flight_cap_;
    dropped_++;
}

void
TraceRecorder::setFlightCapacity(std::size_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    flight_cap_ = n;
    if (n == 0) {
        head_ = 0;
        return;
    }
    if (events_.size() > n) {
        // Keep the most recent n, oldest-first, and count the rest as
        // lost so accounting matches a ring that was bounded all along.
        dropped_ += events_.size() - n;
        events_.erase(events_.begin(),
                      events_.end() - std::ptrdiff_t(n));
    }
    head_ = events_.size() % n;
}

std::vector<TraceRecorder::Event>
TraceRecorder::events() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return eventsLocked();
}

std::vector<TraceRecorder::Event>
TraceRecorder::eventsLocked() const
{
    std::vector<Event> out;
    out.reserve(events_.size());
    if (flight_cap_ != 0 && events_.size() == flight_cap_) {
        // Full ring: oldest event sits at head_.
        for (std::size_t i = 0; i < events_.size(); i++)
            out.push_back(events_[(head_ + i) % events_.size()]);
    } else {
        out = events_;
    }
    return out;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
}

std::string
TraceRecorder::toChromeJson() const
{
    // Spans are recorded when scheduled, which may predate events that
    // execute earlier (a Cpu books work at its future freeAt); sort by
    // virtual start time so the export reads in timeline order.
    std::vector<Event> store;
    std::vector<std::string> tracks;
    u64 dropped;
    {
        std::lock_guard<std::mutex> lk(mu_);
        store = eventsLocked();
        tracks = tracks_;
        dropped = dropped_;
    }
    std::vector<const Event *> ordered;
    ordered.reserve(store.size());
    for (const Event &e : store)
        ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Event *a, const Event *b) {
                         return a->ts_ns < b->ts_ns;
                     });

    JsonWriter w;
    w.beginObject()
        .field("displayTimeUnit", "ms")
        .field("droppedEvents", dropped)
        .key("traceEvents")
        .beginArray();
    auto meta = [&w](std::size_t tid, const char *what,
                     const std::string &name) {
        w.newline().beginObject().fields("ph", "M", "pid", 1, "tid", tid,
                                         "name", what);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
    };
    meta(0, "process_name", "mirage");
    for (std::size_t i = 0; i < tracks.size(); i++)
        meta(i, "thread_name", tracks[i]);
    for (const Event *e : ordered) {
        // Chrome expects microsecond timestamps; keep ns resolution
        // with a fractional part.
        w.newline().beginObject().key("ph").str(std::string_view(&e->ph, 1));
        w.fields("pid", 1, "tid", e->tid, "cat", catName(e->cat), "name",
                 e->name);
        w.key("ts").fixed(double(e->ts_ns) / 1000.0, 3);
        if (e->ph == 'X')
            w.key("dur").fixed(double(e->dur_ns) / 1000.0, 3);
        if (e->ph == 'i')
            w.field("s", "t");
        if (e->ph == 'b' || e->ph == 'e' || e->ph == 'n')
            w.field("id", strprintf("0x%llx", (unsigned long long)e->id));
        if (!e->args.empty())
            w.key("args").raw(e->args);
        w.endObject();
    }
    w.newline().endArray().endObject().newline();
    return w.take();
}

Status
TraceRecorder::writeChromeJson(const std::string &path) const
{
    return writeFile(path, toChromeJson());
}

} // namespace mirage::trace
