/**
 * @file
 * Network address types: Ethernet MAC and IPv4 addresses with parsing,
 * formatting and the usual classifications.
 */

#ifndef MIRAGE_NET_ADDRESSES_H
#define MIRAGE_NET_ADDRESSES_H

#include <array>
#include <string>

#include "base/result.h"
#include "base/types.h"
#include "hypervisor/netback.h" // MacBytes

namespace mirage::net {

/** 48-bit Ethernet address. */
class MacAddr
{
  public:
    MacAddr() : bytes_{} {}
    explicit MacAddr(xen::MacBytes bytes) : bytes_(bytes) {}

    static MacAddr broadcast();
    /** Parse "aa:bb:cc:dd:ee:ff". */
    static Result<MacAddr> parse(const std::string &s);
    /** Locally-administered address derived from an index. */
    static MacAddr local(u32 index);

    const xen::MacBytes &bytes() const { return bytes_; }
    bool isBroadcast() const;
    std::string toString() const;

    bool operator==(const MacAddr &) const = default;
    auto operator<=>(const MacAddr &) const = default;

  private:
    xen::MacBytes bytes_;
};

/** 32-bit IPv4 address, host byte order internally. */
class Ipv4Addr
{
  public:
    constexpr Ipv4Addr() : addr_(0) {}
    constexpr explicit Ipv4Addr(u32 addr) : addr_(addr) {}
    constexpr Ipv4Addr(u8 a, u8 b, u8 c, u8 d)
        : addr_((u32(a) << 24) | (u32(b) << 16) | (u32(c) << 8) | u32(d))
    {
    }

    static constexpr Ipv4Addr any() { return Ipv4Addr(0); }
    static constexpr Ipv4Addr broadcast()
    {
        return Ipv4Addr(0xffffffff);
    }
    /** Parse dotted-quad notation. */
    static Result<Ipv4Addr> parse(const std::string &s);

    constexpr u32 raw() const { return addr_; }
    bool isBroadcast() const { return addr_ == 0xffffffff; }
    bool isAny() const { return addr_ == 0; }

    /** Same-subnet test under @p netmask. */
    bool
    inSubnet(Ipv4Addr network, Ipv4Addr netmask) const
    {
        return (addr_ & netmask.addr_) == (network.addr_ & netmask.addr_);
    }

    std::string toString() const;

    bool operator==(const Ipv4Addr &) const = default;
    auto operator<=>(const Ipv4Addr &) const = default;

  private:
    u32 addr_;
};

} // namespace mirage::net

template <>
struct std::hash<mirage::net::Ipv4Addr>
{
    std::size_t
    operator()(const mirage::net::Ipv4Addr &a) const noexcept
    {
        return std::hash<mirage::u32>()(a.raw());
    }
};

#endif // MIRAGE_NET_ADDRESSES_H
