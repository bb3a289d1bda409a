/**
 * @file
 * Host-time probes: one public function each, timed in isolation at the
 * state size the traced run reached, then multiplied by how often the
 * traced run called it. The sum of these estimates over run_cpu_s is
 * the share of simulator CPU that per-call costs explain
 * (host.attributed_frac); the rest is model code nothing attributes yet.
 */

#include <algorithm>

#include "base/checksum.h"
#include "common.h"
#include "drivers/grant_pool.h"
#include "hypervisor/grant_table.h"
#include "hypervisor/paging.h"
#include "sim/tuning.h"
#include "storage/btree.h"

namespace perfbench {

using namespace mirage;

namespace {

/** Host ns per call of @p body, over @p calls calls. */
template <typename F>
double
perCall(u64 calls, F &&body)
{
    double t0 = wallNow();
    body();
    return (wallNow() - t0) * 1e9 / double(calls);
}

double
layer(const Rep &r, const char *k)
{
    auto it = r.layer.find(k);
    return it == r.layer.end() ? 0 : it->second;
}

} // namespace

std::map<std::string, double>
runProbes(const Rep &traced)
{
    std::map<std::string, double> out;

    // Engine::after + dispatch, behind the traced run's queue depth.
    {
        sim::Engine eng;
        auto depth = u64(std::max(1.0, layer(traced, "_sim.pending_peak")));
        for (u64 i = 0; i < depth; i++)
            eng.after(Duration::seconds(3600), [] {});
        constexpr u64 batch = 1000, rounds = 500;
        u64 sink = 0;
        out["sim.schedule_dispatch_ns"] = perCall(batch * rounds, [&] {
            for (u64 r = 0; r < rounds; r++) {
                for (u64 i = 0; i < batch; i++)
                    eng.after(Duration(i64(i + 1)), [&sink] { sink++; });
                eng.runFor(Duration(i64(batch)));
            }
        });
        if (sink != batch * rounds)
            panic("probe: engine dispatched %llu of %llu",
                  (unsigned long long)sink,
                  (unsigned long long)(batch * rounds));
    }

    // GrantTable::mapFor + unmapFor over a table of the run's size.
    {
        xen::GrantTable gt(1);
        auto grants = u64(std::clamp(
            layer(traced, "drivers.grant_issued"), 64.0, 65536.0));
        std::vector<xen::GrantRef> refs;
        for (u64 i = 0; i < grants; i++)
            refs.push_back(gt.grantAccess(0, Cstruct::create(64), false));
        constexpr u64 pairs = 200000;
        out["hypervisor.grant_map_ns"] = perCall(2 * pairs, [&] {
            for (u64 i = 0; i < pairs; i++) {
                xen::GrantRef r = refs[i % refs.size()];
                if (!gt.mapFor(0, r, true).ok() || !gt.unmapFor(0, r).ok())
                    panic("probe: grant map failed");
            }
        });
    }

    // PageTables::map, filling fresh tables page by page.
    {
        constexpr u64 pages = 4096, tables = 100;
        out["hypervisor.pt_map_ns"] = perCall(pages * tables, [&] {
            for (u64 t = 0; t < tables; t++) {
                xen::PageTables pt;
                for (u64 v = 0; v < pages; v++)
                    if (!pt.map(v, xen::PagePerms::rw(),
                                xen::PageRole::Heap)
                             .ok())
                        panic("probe: page map failed");
            }
        });
    }

    // GrantPool::acquirePage with a window of pages still leased, as
    // in-flight I/O holds them; ARP learning with the run's neighbours.
    {
        core::Cloud cloud;
        core::Guest &g =
            cloud.startUnikernel("probe", net::Ipv4Addr(10, 0, 0, 2));
        {
            drivers::GrantPool pool(g.boot, cloud.dom0().id());
            // Half the pool stays leased, so each scan walks past busy
            // pages the way in-flight I/O makes it.
            std::vector<Cstruct> held(sim::tuning().frontendPoolPages / 2);
            constexpr u64 calls = 100000;
            out["drivers.grant_acquire_ns"] = perCall(calls, [&] {
                for (u64 i = 0; i < calls; i++) {
                    Cstruct &slot = held[i % held.size()];
                    slot = Cstruct();
                    auto p = pool.acquirePage();
                    if (!p.ok())
                        panic("probe: acquirePage failed");
                    slot = p.value();
                }
            });
            held.clear();
            pool.drain();
        }

        auto neighbours = u64(std::max(1.0, layer(traced, "_net.neighbours")));
        Cstruct pkt = Cstruct::create(net::Arp::wireBytes);
        pkt.setBe16(0, 1);
        pkt.setBe16(2, 0x0800);
        pkt.setU8(4, 6);
        pkt.setU8(5, 4);
        pkt.setBe16(6, 2); // reply: learn only, no answer sent
        constexpr u64 calls = 200000;
        out["net.arp_learn_ns"] = perCall(calls, [&] {
            for (u64 i = 0; i < calls; i++) {
                u32 n = u32(i % neighbours);
                pkt.setBe32(8, 0x02000000u | n); // sender MAC (low bytes)
                pkt.setBe32(14, 0x0a000000u | (n + 16)); // sender IP
                pkt.setBe32(24, 0x0a000002u);
                g.stack.arp().input(pkt);
            }
        });
    }

    {
        Cstruct buf = Cstruct::create(64 * 1024);
        for (std::size_t i = 0; i < buf.length(); i++)
            buf.data()[i] = u8(i * 7);
        constexpr u64 rounds = 4000;
        u64 sink = 0;
        out["net.checksum_ns_per_kib"] = perCall(rounds * 64, [&] {
            for (u64 r = 0; r < rounds; r++)
                sink += internetChecksum(buf);
        });
        if (sink == 0)
            panic("probe: checksum folded to zero");
    }

    // BTree get/set on a MemDevice holding the run's entry count.
    {
        storage::MemDevice mem(1u << 20);
        storage::BTree tree(mem);
        bool ok = true;
        tree.format([&](Status st) { ok = ok && st.ok(); });
        auto entries =
            u64(std::clamp(layer(traced, "_storage.entries"), 64.0, 20000.0));
        std::string value(100, 'v');
        for (u64 i = 0; i < entries; i++)
            tree.set(strprintf("user%llu/%08llu",
                               (unsigned long long)(i % 256),
                               (unsigned long long)i),
                     value, [&](Status st) { ok = ok && st.ok(); });
        constexpr u64 calls = 20000;
        out["storage.btree_get_ns"] = perCall(calls, [&] {
            for (u64 i = 0; i < calls; i++) {
                u64 k = (i * 7919) % entries;
                tree.get(strprintf("user%llu/%08llu",
                                   (unsigned long long)(k % 256),
                                   (unsigned long long)k),
                         [&](Result<std::string> r) {
                             ok = ok && r.ok() && r.value() == value;
                         });
            }
        });
        out["storage.btree_set_ns"] = perCall(calls, [&] {
            for (u64 i = 0; i < calls; i++)
                tree.set(strprintf("new%llu", (unsigned long long)i), value,
                         [&](Status st) { ok = ok && st.ok(); });
        });
        if (!ok)
            panic("probe: B-tree on MemDevice failed");
    }

    // Estimates: probe cost x the traced run's call count.
    auto est = [&](const char *probe, double calls) {
        return out[probe] * calls / 1e9;
    };
    out["sim.host_s_est"] =
        est("sim.schedule_dispatch_ns", layer(traced, "sim.events"));
    out["hypervisor.host_s_est"] =
        est("hypervisor.grant_map_ns",
            layer(traced, "hypervisor.gnttab_ops")) +
        est("hypervisor.pt_map_ns", layer(traced, "_hypervisor.pt_updates"));
    out["drivers.host_s_est"] =
        est("drivers.grant_acquire_ns", layer(traced, "_drivers.grant_acquires"));
    out["net.host_s_est"] =
        est("net.checksum_ns_per_kib", layer(traced, "_net.tx_bytes") / 1024) +
        est("net.arp_learn_ns", layer(traced, "_net.arp_learns"));
    out["storage.host_s_est"] =
        est("storage.btree_get_ns", layer(traced, "_storage.gets")) +
        est("storage.btree_set_ns", layer(traced, "_storage.sets"));
    return out;
}

} // namespace perfbench
