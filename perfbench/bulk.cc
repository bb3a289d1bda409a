/**
 * @file
 * bulk_io: per-byte datapath load. Four parallel iperf TCP flows
 * between two unikernels (TSO, checksum offload, zero-copy grants) run
 * while a third unikernel issues random reads and writes through its
 * blkif ring: 3 reads to 1 write, 16 in flight, half 4 KiB and half
 * 64 KiB, over a 16 MiB region of a preloaded disk.
 *
 * Checks: the iperf receiver counts exactly the bytes the sender wrote;
 * every block read returns the bytes last written there (no two
 * in-flight ops touch one block, so "last" is well defined); and after
 * the run the disk holds exactly what the shadow says.
 */

#include <cstring>
#include <memory>

#include "base/rand.h"
#include "common.h"
#include "drivers/blkif.h"
#include "loadgen/iperf.h"
#include "storage/block.h"

namespace perfbench {

using namespace mirage;

namespace {

constexpr u32 kFlows = 4;
constexpr Duration kWindow = Duration::millis(150);
constexpr u32 kQueueDepth = 16;
constexpr u32 kBlocks = 4096; //!< 4 KiB blocks in the I/O region
constexpr u32 kBlockBytes = 4096;
constexpr u32 kSectorsPerBlock = kBlockBytes / 512;
constexpr u32 kBigBlocks = 16; //!< a 64 KiB op
/** Mean pause before a slot issues its next op (fio's thinktime). */
constexpr double kThinkMeanUs = 50;

/** The bytes block @p b holds after its @p gen-th write. */
void
stamp(u8 *dst, u32 b, u32 gen)
{
    for (u32 w = 0; w < kBlockBytes / 8; w++) {
        u64 v = (u64(b) << 40) ^ (u64(gen) << 16) ^ w;
        std::memcpy(dst + w * 8, &v, 8);
    }
}

struct BlockLoad
{
    core::Guest &guest;
    storage::BlockDevice &dev;
    Rep &rep;
    Rng rng;
    TimePoint stop;
    std::vector<u32> gen = std::vector<u32>(kBlocks, 0);
    std::vector<bool> busy = std::vector<bool>(kBlocks, false);
    TimePoint last_done;
    u64 blk_reads = 0;  //!< 4 KiB blkif requests
    u64 blk_writes = 0;

    BlockLoad(core::Guest &g, storage::BlockDevice &d, Rep &r, u64 seed,
              TimePoint s)
        : guest(g), dev(d), rep(r), rng(seed * 0xd1b54a32d192ed03ull + 7),
          stop(s)
    {
    }

    TimePoint now() const { return guest.dom.engine().now(); }

    void
    next()
    {
        if (now() >= stop)
            return;
        bool write = rng.below(4) == 0;
        u32 n = rng.below(2) ? kBigBlocks : 1;
        u32 first = 0;
        for (;;) {
            first = u32(rng.below(kBlocks / n)) * n;
            bool free = true;
            for (u32 b = first; b < first + n; b++)
                free = free && !busy[b];
            if (free)
                break;
        }
        for (u32 b = first; b < first + n; b++)
            busy[b] = true;
        rep.attempted++;
        Cstruct buf = Cstruct::create(std::size_t(n) * kBlockBytes);
        if (write)
            for (u32 b = first; b < first + n; b++)
                stamp(buf.data() + (b - first) * kBlockBytes, b,
                      gen[b] + 1);
        TimePoint issued = now();
        auto done = [this, write, first, n, buf, issued](Status st) {
            SpanScope cb("client.callback");
            complete(write, first, n, buf, issued, st);
        };
        SpanScope s("storage.call");
        u64 sector = u64(first) * kSectorsPerBlock;
        u32 sectors = n * kSectorsPerBlock;
        (write ? blk_writes : blk_reads) += n;
        if (write)
            storage::writeRange(dev, sector, sectors, buf, done);
        else
            storage::readRange(dev, sector, sectors, buf, done);
    }

    void
    complete(bool write, u32 first, u32 n, Cstruct buf, TimePoint issued,
             Status st)
    {
        std::string err;
        if (!st.ok()) {
            err = st.error().message;
        } else if (write) {
            for (u32 b = first; b < first + n; b++)
                gen[b]++;
        } else {
            std::vector<u8> want(kBlockBytes);
            for (u32 b = first; b < first + n && err.empty(); b++) {
                stamp(want.data(), b, gen[b]);
                if (std::memcmp(buf.data() + (b - first) * kBlockBytes,
                                want.data(), kBlockBytes) != 0)
                    err = strprintf("block %u: read differs from its "
                                    "last write",
                                    b);
            }
        }
        for (u32 b = first; b < first + n; b++)
            busy[b] = false;
        if (!err.empty()) {
            rep.failed++;
            rep.fail("bulk: " + err);
        } else {
            i64 lat = (now() - issued).ns();
            rep.latency_ns.push_back(lat);
            if (write)
                rep.write_ns.push_back(lat);
            rep.payload_bytes += u64(n) * kBlockBytes;
            last_done = now();
        }
        // A random pause keeps the 16 slots from settling into lockstep,
        // which would make every op's latency the same few values.
        guest.dom.engine().after(
            Duration::fromSecondsF(rng.exponential(kThinkMeanUs) * 1e-6),
            [this] { next(); });
    }
};

} // namespace

Rep
runBulk(const RepConfig &cfg)
{
    Rep rep;

    Phase setup;
    Stamp t0;
    auto cloud = std::make_unique<core::Cloud>();
    rep.ctor_s = wallNow() - t0.wall;
    if (cfg.traced) {
        cloud->tracer().setFlightCapacity(1u << 20);
        cloud->tracer().enable();
        cloud->profiler().enable();
    }
    cloud->checker().enable();

    double t1 = wallNow();
    xen::VirtualDisk *disk = nullptr;
    core::Guest *rx = nullptr, *tx = nullptr, *store = nullptr;
    std::unique_ptr<loadgen::IperfServer> server;
    {
        SpanScope provision("setup.provision");
        disk = &cloud->addDisk("bulk", 1u << 17);
        rx = &cloud->startUnikernel("rx", net::Ipv4Addr(10, 0, 0, 2));
        tx = &cloud->startUnikernel("tx", net::Ipv4Addr(10, 0, 0, 3));
        store = &cloud->startUnikernel("store", net::Ipv4Addr(10, 0, 0, 4));
        server = std::make_unique<loadgen::IperfServer>(*rx, 5001);
    }
    double t2 = wallNow();
    rep.provision_s = t2 - t1;

    auto blkif =
        std::make_unique<drivers::Blkif>(store->boot, cloud->blkbackFor(*disk));
    storage::BlkifDevice dev(*blkif);
    {
        SpanScope preload("setup.disk");
        Cstruct block = Cstruct::create(kBlockBytes);
        for (u32 b = 0; b < kBlocks; b++) {
            stamp(block.data(), b, 0);
            if (Status st = disk->writeSync(u64(b) * kSectorsPerBlock,
                                            kSectorsPerBlock, block);
                !st.ok())
                rep.fail("bulk preload: " + st.error().message);
        }
    }
    rep.disk_s = wallNow() - t2;
    rep.setup = setup.end();
    if (cfg.setup_only) {
        blkif.reset();
        server.reset();
        teardown(cloud, rep);
        return rep;
    }

    sim::Engine &eng = store->dom.engine();
    TimePoint start = eng.now();
    BlockLoad load(*store, dev, rep, cfg.seed, start + kWindow);
    for (u32 i = 0; i < kQueueDepth; i++)
        load.next();
    loadgen::IperfClient::Report iperf;
    loadgen::IperfClient::run(*tx, *server, net::Ipv4Addr(10, 0, 0, 2),
                              5001, kFlows, kWindow,
                              [&](auto r) { iperf = r; });

    {
        SpanScope run("cloud.run");
        runTimed(*cloud, rep);
    }
    rep.vt_ns = (load.last_done - start).ns();

    if (iperf.bytesSent == 0 || server->bytesReceived() != iperf.bytesSent)
        rep.fail(strprintf("bulk: iperf sent %llu bytes, receiver got %llu",
                           (unsigned long long)iperf.bytesSent,
                           (unsigned long long)server->bytesReceived()));
    rep.payload_bytes += server->bytesReceived();
    // The disk must end up holding exactly the shadow's generations.
    std::vector<u8> want(kBlockBytes);
    Cstruct got = Cstruct::create(kBlockBytes);
    for (u32 b = 0; b < kBlocks; b++) {
        stamp(want.data(), b, load.gen[b]);
        if (!disk->readSync(u64(b) * kSectorsPerBlock, kSectorsPerBlock, got)
                 .ok() ||
            std::memcmp(got.data(), want.data(), kBlockBytes) != 0) {
            rep.fail(strprintf("bulk: block %u differs after the run", b));
            break;
        }
    }

    rep.events = cloud->eventsRun();
    rep.checksum = cloud->shards().dispatchChecksum();
    checkClean(*cloud, rep);
    collectLayerCounters(*cloud, rep.latency_ns.size(), rep);
    rep.layer["storage.blk_reads"] = double(load.blk_reads);
    rep.layer["storage.blk_writes"] = double(load.blk_writes);
    if (cfg.traced)
        collectTraced(*cloud, cfg, rep);

    blkif.reset();
    server.reset();
    teardown(cloud, rep);
    return rep;
}

} // namespace perfbench
