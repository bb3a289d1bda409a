#include "protocols/dns/server.h"

#include "hypervisor/xen.h"
#include "trace/layer.h"

namespace mirage::dns {

DnsServer::DnsServer(Zone zone, Config config)
    : zone_(std::move(zone)), config_(config),
      memo_(config.memoCapacity)
{
}

Cstruct
DnsServer::buildResponse(const DnsMessage &query)
{
    DnsMessage rsp;
    rsp.header = query.header;
    rsp.header.qr = true;
    rsp.header.aa = true;
    rsp.header.ra = false;
    rsp.header.rcode = Rcode::NoError;
    rsp.questions = query.questions;

    const Question &q = query.questions.front();
    if (!zone_.inZone(q.qname)) {
        rsp.header.rcode = Rcode::Refused;
    } else {
        // Chase one CNAME hop, then the target type.
        auto direct = zone_.lookup(q.qname, RrType(q.qtype));
        if (direct.empty()) {
            auto cname = zone_.lookup(q.qname, RrType::CNAME);
            if (!cname.empty()) {
                rsp.answers.push_back(cname.front());
                auto chased =
                    zone_.lookup(cname.front().target, RrType(q.qtype));
                for (auto &rr : chased)
                    rsp.answers.push_back(rr);
            } else if (!zone_.nameExists(q.qname)) {
                rsp.header.rcode = Rcode::NxDomain;
                stats_.nxdomain++;
            }
            // else: NODATA — empty answer, NoError.
        } else {
            rsp.answers = std::move(direct);
        }
    }
    MessageWriter writer(config_.compression);
    return writer.write(rsp);
}

Result<Cstruct>
DnsServer::answer(const Cstruct &query)
{
    stats_.queries++;
    auto parsed = parseMessage(query);
    if (!parsed.ok() || parsed.value().header.qr ||
        parsed.value().questions.empty()) {
        stats_.dropped++;
        return parseError("unanswerable query");
    }
    const DnsMessage &msg = parsed.value();
    const Question &q = msg.questions.front();

    if (!config_.memoize) {
        return buildResponse(msg);
    }

    // Memoize on (qname, qtype); the cached packet is copied and its
    // id patched per query — the §4.2 "20 line patch".
    std::string key =
        nameToString(q.qname) + "/" + std::to_string(q.qtype);
    u64 hits_before = memo_.hits();
    Cstruct cached =
        memo_.get(key, [&] { return buildResponse(msg); });
    if (memo_.hits() > hits_before)
        stats_.memoHits++;
    Cstruct out = Cstruct::create(cached.length());
    out.blitFrom(cached, 0, 0, cached.length());
    out.setBe16(0, msg.header.id);
    return out;
}

Status
DnsServer::attachUdp(net::NetworkStack &stack)
{
    // One flow per query, on the stack's "<dom>/dns" track.
    trace::LayerTrace tr(stack.scheduler().engine().telemetry(),
                         stack.domain().name(), "/dns");
    return stack.udp().listen(
        53, [this, &stack, tr](const net::UdpDatagram &dgram) mutable {
            sim::Engine &engine = stack.scheduler().engine();
            trace::FlowId flow = tr.begin("dns", engine.now(), "udp query",
                                          stack.domain().name());
            trace::FlowScope scope = tr.enter(flow);
            auto rsp = answer(dgram.payload);
            if (rsp.ok()) {
                // The stack hands the reply to the netif only after
                // its vCPU work, in a later event. A udp_tx stage
                // holds the flow open across that hop and closes just
                // behind it (same instant, scheduled later), so the
                // frame's netif_tx stage opens inside the flow and the
                // finalize waits for the frame to leave.
                tr.stageBegin(flow, "udp_tx", engine.now());
                stack.udp().sendTo(dgram.srcIp, dgram.srcPort, 53,
                                   {rsp.value()});
                if (flow)
                    engine.at(stack.domain().vcpu().freeAt(),
                              [tr, flow, &engine]() mutable {
                                  tr.stageEnd(flow, "udp_tx",
                                              engine.now());
                              });
            }
            tr.end(flow, engine.now());
        });
}

} // namespace mirage::dns
