/**
 * @file
 * perfbench: run one workload of the end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR]
 *
 * Untraced (--trace 0): set up alone a few times, then repeat the
 * workload, each repetition a fresh Cloud built from the same seed,
 * while at least half of the next one fits in S seconds (at least two),
 * and report the median repetition's host rows
 * beside the exact virtual-clock rows. Host rows are read on the
 * reference clock (calib.cc): wall time scaled by the pace of a fixed
 * gauge run on the same thread in and around each phase, so they hold
 * still when the shared runner's speed swings. Every repetition must
 * dispatch the same events with the same checksum and produce the same
 * virtual results; any output check, checker finding or mismatch fails
 * the run.
 *
 * Traced (--trace 1): one untraced and one traced repetition, plus for
 * fleet_boot at seeds other than 0 one of the reference input; then the
 * host-time probes. Prints the per-layer rows and writes spans, trace,
 * profile and flows under DIR.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the raw values by name (perfbench/run.py attaches units).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common.h"

using namespace perfbench;
using mirage::strprintf;

namespace {

struct Workload
{
    const char *name;
    Rep (*run)(const RepConfig &);
};

const Workload kWorkloads[] = {
    {"fleet_boot", runFleet},
    {"web_rw", runWeb},
    {"bulk_io", runBulk},
};

/** Set-up-only repetitions before the full ones (see main). */
constexpr int kSetupOnly = 8;

/** The virtual-clock rows: exact functions of the seed. */
std::map<std::string, double>
virtualRows(const Rep &r)
{
    double vt_s = double(r.vt_ns) / 1e9;
    double cpu_s = double(r.vcpu_ns) / 1e9;
    return {
        {"vt_ops_per_cpu_s",
         cpu_s > 0 ? double(r.latency_ns.size()) / cpu_s : 0},
        {"vt_latency_p50_ms", double(quantile(r.latency_ns, 0.50)) / 1e6},
        {"vt_latency_p99_ms", double(quantile(r.latency_ns, 0.99)) / 1e6},
        {"vt_goodput_mbps",
         vt_s > 0 ? double(r.payload_bytes) * 8 / vt_s / 1e6 : 0},
    };
}

/**
 * Empty when @p b reproduces @p a's virtual results: event count,
 * payload, timed span, virtual CPU, every op's latency in op order, and
 * the dispatch checksum.
 */
std::string
sameVirtual(const Rep &a, const Rep &b)
{
    if (a.events != b.events)
        return strprintf("events %llu vs %llu", (unsigned long long)a.events,
                         (unsigned long long)b.events);
    if (a.payload_bytes != b.payload_bytes || a.vt_ns != b.vt_ns ||
        a.vcpu_ns != b.vcpu_ns || a.latency_ns != b.latency_ns ||
        a.write_ns != b.write_ns)
        return "virtual results differ";
    if (a.checksum != b.checksum)
        return strprintf("dispatch checksum %016llx vs %016llx",
                         (unsigned long long)a.checksum,
                         (unsigned long long)b.checksum);
    return "";
}

/** BENCH_engine.json's fleet_storm/domains=1000 rows. */
struct FleetReference
{
    static constexpr u64 events = 5857351;
    static constexpr double p50_ms = 60.9423;
    static constexpr double p99_ms = 250.865;
};

/** CPU seconds of @p l, read on the reference clock. */
double
refCpu(const Lap &l)
{
    return l.wall > 0 ? l.cpu * l.ref / l.wall : 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Empty when a fleet run at seed 0 matches BENCH_engine.json. */
std::string
checkReference(const Rep &r)
{
    auto rows = virtualRows(r);
    // BENCH_engine.json keeps 6 significant digits.
    auto same = [](double a, double b) {
        return strprintf("%.6g", a) == strprintf("%.6g", b);
    };
    if (r.events != FleetReference::events ||
        !same(rows["vt_latency_p50_ms"], FleetReference::p50_ms) ||
        !same(rows["vt_latency_p99_ms"], FleetReference::p99_ms))
        return strprintf("reference mismatch: %llu events, p50 %.6g ms, "
                         "p99 %.6g ms (want %llu, %.6g, %.6g)",
                         (unsigned long long)r.events,
                         rows["vt_latency_p50_ms"], rows["vt_latency_p99_ms"],
                         (unsigned long long)FleetReference::events,
                         FleetReference::p50_ms, FleetReference::p99_ms);
    return "";
}

void
printDeterminism(const char *workload, const RepConfig &cfg, const Rep &r)
{
    std::printf("determinism: workload=%s seed=%llu "
                "sim.events=%llu dispatch_checksum=%016llx\n",
                workload, (unsigned long long)cfg.seed,
                (unsigned long long)r.events,
                (unsigned long long)r.checksum);
}

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::map<std::string, double> &values)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"values\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    const char *sep = "";
    for (const auto &[k, v] : values) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, out_dir = ".";
    RepConfig cfg;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            name = v;
        else if (k == "--seed")
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            seconds = std::atof(v);
        else if (k == "--trace")
            trace = std::atoi(v);
        else if (k == "--out")
            out_dir = v;
        else
            return usage();
    }
    const Workload *w = nullptr;
    for (const auto &cand : kWorkloads)
        if (name == cand.name)
            w = &cand;
    if (!w || seconds <= 0 || (trace != 0 && trace != 1) || argc % 2 == 0)
        return usage();
    bool fleet = w->run == runFleet;
    unsigned cores = std::thread::hardware_concurrency();
    std::printf("workload=%s seed=%llu runner_cores=%u\n", w->name,
                (unsigned long long)cfg.seed, cores);

    std::vector<std::string> errors;
    auto check = [&](const std::string &what, const std::string &err) {
        if (!err.empty()) {
            errors.push_back(what + ": " + err);
            std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                         err.c_str());
        }
    };
    std::map<std::string, double> values;
    u64 attempted = 0, failed = 0;

    if (trace == 0) {
        double start = wallNow();
        std::vector<Rep> reps;
        std::vector<double> setup, run, cpu;
        // Set-up alone, several times, so that setup_s is a median over
        // enough set-ups even where only a few full repetitions fit.
        RepConfig setup_cfg = cfg;
        setup_cfg.setup_only = true;
        for (int i = 1; i <= kSetupOnly; i++) {
            Rep s = w->run(setup_cfg);
            check(strprintf("set-up %d", i), s.error);
            setup.push_back(s.setup.ref);
            std::printf("set-up %d: wall %.4f s, reference %.4f s\n", i,
                        s.setup.wall, s.setup.ref);
        }
        double peak_rss = 0;
        for (;;) {
            double t0 = wallNow();
            reps.push_back(w->run(cfg));
            double took = wallNow() - t0;
            const Rep &r = reps.back();
            check(strprintf("rep %zu", reps.size()), r.error);
            check(strprintf("rep %zu determinism", reps.size()),
                  sameVirtual(reps.front(), r));
            attempted += r.attempted;
            failed += r.failed;
            // The peak through one set-up, run and teardown; later
            // repetitions would add allocator fragmentation that grows
            // with how many fit in the run.
            if (reps.size() == 1)
                peak_rss = peakRssMib();
            setup.push_back(r.setup.ref);
            run.push_back(r.run.ref);
            cpu.push_back(refCpu(r.run));
            std::printf("rep %zu: wall setup %.4f s, run %.4f s (cpu %.4f s), "
                        "teardown %.4f s; reference run %.4f s, runner "
                        "speed %.3f\n",
                        reps.size(), r.setup.wall, r.run.wall, r.run.cpu,
                        r.teardown.wall, r.run.ref, r.run.ref / r.run.wall);
            std::fflush(stdout);
            // Start another while at least half of it fits.
            if (!errors.empty() ||
                (reps.size() >= 2 && wallNow() - start + took / 2 > seconds))
                break;
        }
        const Rep &r = reps.front();
        printDeterminism(w->name, cfg, r);
        if (fleet && cfg.seed == 0)
            check("reference", checkReference(r));
        values = virtualRows(r);
        values["setup_s"] = median(setup);
        values["run_s"] = median(run);
        values["run_cpu_s"] = median(cpu);
        values["peak_rss_mib"] = peak_rss;
        std::printf("reps=%zu samples=%zu writes=%zu\n", reps.size(),
                    r.latency_ns.size(), r.write_ns.size());
    } else {
        Rep base = w->run(cfg);
        check("untraced rep", base.error);
        printDeterminism(w->name, cfg, base);

        Spans spans;
        g_spans = &spans;
        RepConfig tcfg = cfg;
        tcfg.traced = true;
        tcfg.out_prefix =
            strprintf("%s/%s-seed%llu", out_dir.c_str(), w->name,
                      (unsigned long long)cfg.seed);
        Rep traced = w->run(tcfg);
        g_spans = nullptr;
        check("traced rep", traced.error);
        check("traced determinism", sameVirtual(base, traced));
        attempted = traced.attempted;
        failed = traced.failed;

        values = traced.layer;
        values["storage.write_p99_ms"] =
            double(quantile(traced.write_ns, 0.99)) / 1e6;
        values["loadgen.samples"] = double(traced.latency_ns.size());
        values["sim.host_ns_per_event"] =
            base.events ? refCpu(base.run) * 1e9 / double(base.events) : 0;
        values["trace.overhead_frac"] =
            base.run.ref > 0 ? traced.run.ref / base.run.ref - 1 : 0;
        values["host.runner_cores"] = cores;
        // ~Cloud is bound by memory latency on fleet_boot (it frees
        // 550 MiB of small objects), which the core gauge does not pace:
        // read on the wall clock.
        values["host.teardown_s"] = base.teardown.wall;
        values["setup.cloud_ctor_s"] = traced.ctor_s;
        values["setup.provision_s"] = spans.seconds("setup.provision");
        values["setup.disk_s"] = spans.seconds("setup.disk");
        values["app.handler_host_s"] = spans.seconds("app.handler", true);
        values["storage.call_host_s"] = spans.seconds("storage.call", true);
        values["client.callback_host_s"] =
            spans.seconds("client.callback", true);
        std::printf("traced: run %.3f s vs untraced %.3f s (reference "
                    "clock)\n",
                    traced.run.ref, base.run.ref);

        if (fleet) {
            if (cfg.seed == 0) {
                check("reference", checkReference(base));
            } else {
                RepConfig ref_cfg = cfg;
                ref_cfg.seed = 0;
                Rep ref = w->run(ref_cfg);
                check("reference rep", ref.error);
                check("reference", checkReference(ref));
            }
        }

        auto probes = runProbes(traced);
        double est = 0;
        for (const auto &[k, v] : probes) {
            values[k] = v;
            if (k.size() > 10 && k.compare(k.size() - 10, 10, "host_s_est") == 0)
                est += v;
        }
        // Probes read the wall clock, so they are set against the
        // untraced run's CPU time as measured, not its reference time.
        values["host.attributed_frac"] =
            base.run.cpu > 0 ? est / base.run.cpu : 0;
    }

    bool correct = errors.empty();
    printResult(correct, attempted, failed, values);
    return correct ? 0 : 1;
}
