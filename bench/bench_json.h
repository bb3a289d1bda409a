/**
 * @file
 * Machine-readable benchmark output: every bench binary accepts
 * --json=<path> and appends one JSON object per reported metric, so CI
 * and plotting scripts consume results without scraping the human
 * tables. Header-only; shared by all bench_*.cc.
 */

#ifndef MIRAGE_BENCH_BENCH_JSON_H
#define MIRAGE_BENCH_BENCH_JSON_H

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/logging.h"
#include "trace/json.h"

namespace mirage::bench {

/**
 * Collects rows and writes them as JSON lines on flush (or in the
 * destructor). Constructed from argv: the first --json=<path> flag
 * selects the output file; without it the reporter is inert.
 */
class JsonReport
{
  public:
    JsonReport(int argc, char **argv)
    {
        for (int i = 1; i < argc; i++) {
            if (std::strncmp(argv[i], "--json=", 7) == 0)
                path_ = argv[i] + 7;
        }
    }

    ~JsonReport() { flush(); }

    bool enabled() const { return !path_.empty(); }

    /**
     * One measurement: @p name is the benchmark/configuration label,
     * @p metric what was measured, @p value its magnitude in
     * @p unit. Percentiles are optional (0 = not reported); rows
     * without a latency distribution omit the fields entirely rather
     * than emitting misleading "p50":0,"p99":0 pairs.
     */
    void
    add(const std::string &name, const std::string &metric,
        double value, const std::string &unit, double p50 = 0,
        double p99 = 0)
    {
        if (!enabled())
            return;
        trace::JsonWriter row;
        row.beginObject().fields("name", name, "metric", metric);
        row.key("value").raw(strprintf("%.6g", value));
        row.field("unit", unit);
        if (p50 > 0 || p99 > 0) {
            row.key("p50").raw(strprintf("%.6g", p50));
            row.key("p99").raw(strprintf("%.6g", p99));
        }
        row.endObject();
        rows_.push_back(row.take());
    }

    /** Write all pending rows (one JSON object per line). */
    void
    flush()
    {
        if (rows_.empty() || path_.empty())
            return;
        std::FILE *f = std::fopen(path_.c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "bench: cannot open %s\n",
                         path_.c_str());
            return;
        }
        for (const std::string &row : rows_)
            std::fprintf(f, "%s\n", row.c_str());
        std::fclose(f);
        rows_.clear();
    }

  private:
    std::string path_;
    std::vector<std::string> rows_;
};

} // namespace mirage::bench

#endif // MIRAGE_BENCH_BENCH_JSON_H
