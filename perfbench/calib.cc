/**
 * @file
 * The reference clock. On a shared runner one core's speed swings by up
 * to half for seconds at a time, independently of the other cores, so
 * host time is read against a gauge run on the same thread. The gauge is
 * a fixed, self-contained piece of simulator-shaped work: a timer heap,
 * indirect calls into a thousand distinct small functions that load and
 * store a table, and writes of varying length into a ring of buffers.
 * It allocates nothing while it runs, so the state the program leaves
 * in the allocator cannot change its pace. It never changes with the
 * program under test, and each timed pass starts with its code and data
 * brought back into the core's caches, so its pace says how fast the
 * core is running, not how much of the cache the program evicted.
 *
 * A Phase takes eight passes before it, one at each poll() at least
 * 10 ms after the last, and eight after it. Its reference time is its
 * wall time (gauge passes left out) times the median pass's pace over
 * the nominal pace.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <cstring>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = 4096; // 32 KiB
constexpr std::size_t kLiveEvents = 1024;
constexpr std::size_t kBlocks = 256;
constexpr std::size_t kBlockBytes = 288;
/** One timed pass: about a third of a millisecond. */
constexpr unsigned kPassEvents = 1024;
/** The untimed pass before it that brings code and data back in. */
constexpr unsigned kWarmEvents = 512;
/** Host time between passes inside a phase. */
constexpr double kPassPeriodS = 0.010;
/**
 * Passes just before and just after a phase: a short phase (a set-up
 * or teardown of 10 ms) has no others to average its pace over.
 */
constexpr int kEdgePasses = 8;
/**
 * The nominal pace, gauge events per second: about what one core of
 * the 4-vCPU 2.1 GHz Xeon runner the notes describe sustains between
 * simulator slices, so reference seconds read close to wall seconds
 * there.
 */
constexpr double kNominalEventsPerS = 3.7e6;

struct Ev
{
    std::uint64_t when;
    std::uint64_t seq;
    bool operator>(const Ev &o) const
    {
        return when != o.when ? when > o.when : seq > o.seq;
    }
};

using Step = std::uint64_t (*)(std::uint64_t *, std::uint64_t);

/**
 * One of many small, distinct steps: together they give the gauge a
 * code footprint and indirect-branch load like the simulator's, which
 * is where a busy neighbour on the same core hurts most.
 */
template <unsigned N>
std::uint64_t
op(std::uint64_t *t, std::uint64_t x)
{
    x ^= x >> (7 + N % 23);
    x *= 0x9e3779b97f4a7c15ull + 2 * N;
    std::uint64_t &w = t[(x >> 20) & (kTableWords - 1)];
    if ((x >> (N % 61)) & 1)
        w += x;
    else
        x += w;
    return x ^ (x >> (11 + N % 17));
}

constexpr std::size_t kOps = 1024;

template <std::size_t... I>
constexpr std::array<Step, sizeof...(I)>
opTable(std::index_sequence<I...>)
{
    return {op<unsigned(I)>...};
}

constexpr std::array<Step, kOps> kOpTable =
    opTable(std::make_index_sequence<kOps>());

/** The gauge's state, kept between passes so no pass pays first touch. */
struct GaugeWork
{
    std::vector<std::uint64_t> table;
    std::vector<Ev> heap; //!< a min-heap under std::greater
    std::vector<char> blocks; //!< kBlocks slots of kBlockBytes
    std::uint64_t x = 0x243f6a8885a308d3ull, acc = 0, seq = 0;

    GaugeWork() : table(kTableWords), blocks(kBlocks * kBlockBytes)
    {
        for (std::size_t i = 0; i < table.size(); i++)
            table[i] = i * 0x9e3779b97f4a7c15ull;
        for (; seq < kLiveEvents; seq++) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            heap.push_back({x >> 44, seq});
            std::push_heap(heap.begin(), heap.end(), std::greater<Ev>());
        }
    }

    /**
     * Bring the whole state back into the core's caches, untimed: the
     * program under test evicts it between passes, and how much it
     * evicts must not show in the gauge's pace.
     */
    void
    warm()
    {
        for (std::uint64_t w : table)
            acc += w;
        for (const Ev &e : heap)
            acc += e.when;
        for (std::size_t i = 0; i < blocks.size(); i += 64)
            acc += std::uint64_t(blocks[i]);
    }

    void
    pass(unsigned events)
    {
        for (unsigned i = 0; i < events; i++, seq++) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<Ev>());
            Ev e = heap.back();
            heap.pop_back();
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            for (int k = 0; k < 4; k++)
                acc = kOpTable[(acc >> 7) & (kOps - 1)](table.data(), acc + x);
            char *b = &blocks[(seq & (kBlocks - 1)) * kBlockBytes];
            std::memset(b, int(acc & 0xff), 32 + ((x >> 33) & 255));
            heap.push_back({e.when + 1 + ((x >> 40) & 0xffff), seq});
            std::push_heap(heap.begin(), heap.end(), std::greater<Ev>());
        }
        table[acc & (kTableWords - 1)] ^= 1; // keep the work observable
    }
};

GaugeWork &
gauge()
{
    static GaugeWork g;
    return g;
}

} // namespace

Phase::Phase()
{
    gauge(); // built outside any timed span
    for (int i = 0; i < kEdgePasses; i++)
        sample(false);
    start_ = Stamp();
    last_ = start_.wall;
}

void
Phase::poll()
{
    if (wallNow() - last_ >= kPassPeriodS)
        sample(true);
}

Lap
Phase::end()
{
    Lap l = lapSince(start_);
    l.wall -= inside_.wall;
    l.cpu -= inside_.cpu;
    for (int i = 0; i < kEdgePasses; i++)
        sample(false);
    l.ref = l.wall * speed();
    return l;
}

double
Phase::speed() const
{
    // The median pass: robust to a pass the kernel interrupted.
    std::vector<double> v = pass_s_;
    if (v.empty())
        return 0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return kPassEvents / v[v.size() / 2] / kNominalEventsPerS;
}

void
Phase::sample(bool inside)
{
    Stamp s0;
    gauge().warm();
    gauge().pass(kWarmEvents);
    Stamp s1;
    gauge().pass(kPassEvents);
    pass_s_.push_back(lapSince(s1).wall);
    if (inside) {
        Lap l = lapSince(s0);
        inside_.wall += l.wall;
        inside_.cpu += l.cpu;
    }
    last_ = wallNow();
}

} // namespace perfbench
