/**
 * @file
 * The authoritative DNS server library (§4.2): zone lookup, response
 * construction with pluggable label compression, and the response
 * memoization that took the Mirage appliance from ~40 k to 75-80 k
 * queries/s. The server core is network-agnostic (answer() maps a
 * query packet to a response packet); attachUdp() binds it to a
 * stack's port 53.
 */

#ifndef MIRAGE_PROTOCOLS_DNS_SERVER_H
#define MIRAGE_PROTOCOLS_DNS_SERVER_H

#include <string>

#include "net/stack.h"
#include "protocols/dns/wire.h"
#include "protocols/dns/zone.h"
#include "storage/memoize.h"

namespace mirage::dns {

class DnsServer
{
  public:
    struct Config
    {
        bool memoize = true;
        std::size_t memoCapacity = 1 << 16;
        CompressionImpl compression = CompressionImpl::FunctionalMap;
    };

    DnsServer(Zone zone, Config config);

    /**
     * Answer one query packet. Returns the response packet, or an
     * error for unparseable input (which a server drops, RFC-style).
     */
    Result<Cstruct> answer(const Cstruct &query);

    /** Serve queries arriving on @p stack's UDP port 53. */
    Status attachUdp(net::NetworkStack &stack);

    struct Stats
    {
        u64 queries = 0;
        u64 memoHits = 0;
        u64 nxdomain = 0;
        u64 servfail = 0;
        u64 dropped = 0;
    };

    const Stats &stats() const { return stats_; }
    const Zone &zone() const { return zone_; }

  private:
    Cstruct buildResponse(const DnsMessage &query);

    Zone zone_;
    Config config_;
    storage::Memoizer<std::string, Cstruct> memo_;
    Stats stats_;
};

} // namespace mirage::dns

#endif // MIRAGE_PROTOCOLS_DNS_SERVER_H
