/**
 * @file
 * Zone database with a BIND-format zone-file parser (§4.2: "a simple
 * in-memory filesystem storing the zone in standard Bind9 format").
 * Supports $ORIGIN/$TTL directives, relative and absolute names, and
 * A/NS/CNAME/TXT records.
 */

#ifndef MIRAGE_PROTOCOLS_DNS_ZONE_H
#define MIRAGE_PROTOCOLS_DNS_ZONE_H

#include <map>
#include <string>
#include <vector>

#include "protocols/dns/wire.h"

namespace mirage::dns {

class Zone
{
  public:
    /** Parse BIND-format zone text. */
    static Result<Zone> parse(const std::string &text);

    /** Programmatic construction (workload generators). */
    explicit Zone(Name origin) : origin_(std::move(origin)) {}

    void addRecord(ResourceRecord rr);

    /** All records for @p name of @p type (CNAMEs not chased here). */
    std::vector<ResourceRecord> lookup(const Name &name,
                                       RrType type) const;

    /** Does any record exist at @p name? (NXDOMAIN vs NODATA.) */
    bool nameExists(const Name &name) const;

    /** Is @p name at or under this zone's origin? */
    bool inZone(const Name &name) const;

    const Name &origin() const { return origin_; }
    std::size_t recordCount() const { return records_; }

  private:
    Zone() = default;

    Name origin_;
    /** Keyed by canonical dotted name. */
    std::map<std::string, std::vector<ResourceRecord>> byName_;
    std::size_t records_ = 0;
};

/** Generate a synthetic zone of @p entries A records (queryperf). */
Zone syntheticZone(const std::string &origin, std::size_t entries);

} // namespace mirage::dns

#endif // MIRAGE_PROTOCOLS_DNS_ZONE_H
