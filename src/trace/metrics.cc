#include "trace/metrics.h"

#include "base/logging.h"

namespace mirage::trace {

// ---- MetricsRegistry -------------------------------------------------------

Counter &
MetricsRegistry::counter(const std::string &name, Listed listed)
{
    std::lock_guard<std::mutex> lk(mu_);
    Entry &e = counters_[name];
    if (!e.cell)
        e.cell = std::make_unique<Counter>();
    e.always |= listed == Listed::Always;
    return *e.cell;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
    return *it->second;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() || !it->second.listed()
               ? nullptr
               : it->second.cell.get();
}

std::size_t
MetricsRegistry::counterCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &[name, e] : counters_)
        n += e.listed();
    return n;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

std::map<std::string, Histogram>
MetricsRegistry::histogramsWithPrefix(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, Histogram> out;
    for (auto it = histograms_.lower_bound(prefix);
         it != histograms_.end() && it->first.rfind(prefix, 0) == 0; ++it)
        out.emplace(it->first.substr(prefix.size()), *it->second);
    return out;
}

std::string
MetricsRegistry::dump() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (const auto &[name, e] : counters_)
        if (e.listed())
            out += strprintf("%-40s %llu\n", name.c_str(),
                             (unsigned long long)e.cell->value());
    for (const auto &[name, h] : histograms_)
        out += strprintf("%-40s %s\n", name.c_str(), h->summary().c_str());
    return out;
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:]; fold the rest to '_'. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/** A sample line up to its value: `<name>{<labels>} `. */
std::string &
promSeries(std::string &out, std::string_view name,
           const std::string &labels)
{
    out += name;
    if (!labels.empty())
        out += "{" + labels + "}";
    return out += ' ';
}

} // namespace

std::string
promLabel(std::string_view name, std::string_view value)
{
    // Label values allow anything except backslash, quote, newline.
    std::string out = std::string(name) + "=\"";
    for (char c : value) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out + '"';
}

void
appendPromType(std::string &out, std::string_view name, const char *type)
{
    out += "# TYPE " + std::string(name) + " " + type + "\n";
}

void
appendPromSample(std::string &out, std::string_view name,
                 const std::string &labels, u64 value)
{
    promSeries(out, name, labels) += std::to_string(value) + '\n';
}

void
appendPromSample(std::string &out, std::string_view name,
                 const std::string &labels, double value, int decimals)
{
    promSeries(out, name, labels) += strprintf("%.*f\n", decimals, value);
}

void
appendPromHistogram(std::string &out, const std::string &name,
                    const std::string &labels, const Histogram &h)
{
    std::string bucket = name + "_bucket";
    std::string prefix = labels.empty() ? "" : labels + ",";
    u64 cumulative = 0;
    for (std::size_t i = 0; i < Histogram::bucketCount; i++) {
        u64 in_bucket = h.bucketCountAt(i);
        if (in_bucket == 0)
            continue;
        cumulative += in_bucket;
        appendPromSample(
            out, bucket,
            prefix + promLabel("le", std::to_string(
                                         Histogram::bucketUpperBound(i))),
            cumulative);
    }
    appendPromSample(out, bucket, prefix + promLabel("le", "+Inf"),
                     h.count());
    appendPromSample(out, name + "_sum", labels, h.sum());
    appendPromSample(out, name + "_count", labels, h.count());
}

std::string
MetricsRegistry::toPrometheus() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out;
    for (const auto &[name, e] : counters_) {
        if (!e.listed())
            continue;
        std::string p = promName(name);
        appendPromType(out, p, "counter");
        appendPromSample(out, p, "", e.cell->value());
    }
    for (const auto &[name, h] : histograms_) {
        std::string p = promName(name);
        appendPromType(out, p, "histogram");
        appendPromHistogram(out, p, "", *h);
    }
    return out;
}

} // namespace mirage::trace
