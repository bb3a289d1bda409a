/**
 * @file
 * Shared types for the end-to-end benchmark: one repetition's result,
 * the host clocks, exact quantiles, and the in-memory span recorder the
 * traced run uses around calls into the simulator's public API.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <map>
#include <string>
#include <vector>

#include "base/types.h"
#include "core/cloud.h"

namespace perfbench {

using mirage::i64;
using mirage::u32;
using mirage::u64;

/** Host wall clock, seconds (steady). */
double wallNow();
/** CPU time of the calling thread (user+sys), seconds. */
double cpuNow();
/** Peak resident set of the process, MiB. */
double peakRssMib();

/** The host clocks read at one instant. */
struct Stamp
{
    double wall = wallNow();
    double cpu = cpuNow();
};

/** Time elapsed on each host clock. */
struct Lap
{
    double wall = 0;
    double cpu = 0;
    double ref = 0;
};

/** Wall and CPU time since @p start (ref stays 0). */
Lap lapSince(const Stamp &start);

/**
 * One timed phase on the calling thread, read on the wall, CPU and
 * reference clocks (calib.cc). The reference clock scales wall time by
 * the median pace of a fixed gauge run on the same thread just before
 * the phase, just after it, and at every poll() at least 10 ms after the
 * last pass; gauge time is left out of the phase's own.
 */
class Phase
{
  public:
    Phase();
    /** Take a gauge pass if one is due. Cheap otherwise. */
    void poll();
    /** Close the phase: its time on each clock. Call once. */
    Lap end();

  private:
    /** The gauge's pace so far against its nominal pace. */
    double speed() const;
    void sample(bool inside);

    Stamp start_;
    double last_ = 0;
    Lap inside_; //!< gauge time inside the phase
    std::vector<double> pass_s_; //!< wall time of each timed pass
};

/** Nearest-rank quantile of an unsorted sample (0 when empty). */
i64 quantile(std::vector<i64> v, double q);

/** What one repetition of a workload measured. */
struct Rep
{
    // Host clock.
    double ctor_s = 0;      //!< Cloud construction (wall)
    double provision_s = 0; //!< guests, servers, boots submitted (wall)
    double disk_s = 0;      //!< disks attached, formatted, preloaded (wall)
    Lap setup;              //!< all of the above, up to the timed phase
    Lap run;                //!< the timed cloud.run()
    Lap teardown;           //!< ~Cloud

    // Virtual clock: one entry per timed operation.
    std::vector<i64> latency_ns; //!< every completed op
    std::vector<i64> write_ns;   //!< completed writes only
    u64 attempted = 0;
    u64 failed = 0;
    u64 payload_bytes = 0; //!< useful bytes delivered
    i64 vt_ns = 0;         //!< virtual length of the timed phase
    u64 vcpu_ns = 0;       //!< virtual CPU charged to every domain in it

    // Determinism anchors.
    u64 events = 0;
    u64 checksum = 0;

    /** Empty when every output check passed. */
    std::string error;

    /** Per-layer readings (counters, ratios, host spans). */
    std::map<std::string, double> layer;

    void
    fail(const std::string &why)
    {
        if (error.empty())
            error = why;
    }
};

/** How a repetition is run. */
struct RepConfig
{
    u64 seed = 0;
    bool traced = false;
    bool setup_only = false; //!< stop after set-up (and tear down)
    std::string out_prefix; //!< traced runs write files here
};

/**
 * The timed phase: cloud.run() at one shard, stepped event by event as
 * Cloud::run does, pausing for gauge passes. Fills rep.run and
 * rep.vcpu_ns.
 */
void runTimed(mirage::core::Cloud &cloud, Rep &rep);

/** Virtual CPU charged so far to every domain's vCPUs, ns. */
u64 vcpuNs(mirage::core::Cloud &cloud);

/**
 * Counters every workload reads after its run: simulator, hypervisor,
 * drivers, net, runtime and checker. @p ops is the workload's op count
 * (the per-op ratios' base).
 */
void collectLayerCounters(mirage::core::Cloud &cloud, u64 ops, Rep &rep);

/**
 * Traced-run outputs: profile shares, flow-stage critical path, boot
 * phases, and the tracer/profile/flow files written under
 * cfg.out_prefix.
 */
void collectTraced(mirage::core::Cloud &cloud, const RepConfig &cfg,
                   Rep &rep);

/**
 * Destroy the cloud and record the time spent in ~Cloud. Callers drop
 * their own objects that reference guests first.
 */
void teardown(std::unique_ptr<mirage::core::Cloud> &cloud, Rep &rep);

/** Check quiescence and the invariant checker after a run. */
void checkClean(mirage::core::Cloud &cloud, Rep &rep);

// ---- Spans -------------------------------------------------------------

/**
 * In-memory spans of the benchmark's own calls into the simulator
 * (name, host start/end, parent, request flow). Installed only for the
 * single-shard traced run, so it needs no locking; untraced runs pay
 * one null test per call site.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        i64 start_ns;
        i64 end_ns;
        int parent;
        u64 flow;
    };

    int begin(const char *name, u64 flow);
    void end(int id);

    /**
     * Host seconds in spans named @p name, nested repeats counted once;
     * with @p self, minus the time their child spans cover.
     */
    double seconds(const std::string &name, bool self = false) const;

    /** JSON array of every span. */
    mirage::Status write(const std::string &path) const;

    /** Deepest engine queue seen when a span opened. */
    std::size_t pendingPeak() const { return pending_peak_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_; //!< spans begun and not yet ended
    std::size_t pending_peak_ = 0;
};

/** The active recorder, or null outside the traced run. */
extern Spans *g_spans;

/** RAII span; no-op when no recorder is installed. */
class SpanScope
{
  public:
    SpanScope(const char *name, u64 flow = 0)
        : id_(g_spans ? g_spans->begin(name, flow) : -1)
    {
    }
    ~SpanScope()
    {
        if (id_ >= 0)
            g_spans->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id_;
};

// ---- Workloads ---------------------------------------------------------

/** 1000 appliances cold-booted at t=0, one probe each. */
Rep runFleet(const RepConfig &cfg);
/** Open-loop httperf sessions against B-tree web appliances. */
Rep runWeb(const RepConfig &cfg);
/** Parallel iperf flows beside random blkif reads and writes. */
Rep runBulk(const RepConfig &cfg);

/** Host-time probes of single public functions (traced run only). */
std::map<std::string, double> runProbes(const Rep &traced);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
