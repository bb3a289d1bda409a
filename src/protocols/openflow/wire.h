/**
 * @file
 * OpenFlow 1.0 wire format (§4.3): the message subset a controller
 * and datapath need — HELLO, ECHO, FEATURES, PACKET_IN, PACKET_OUT
 * and FLOW_MOD with the 10-tuple match structure (the fields this
 * library exercises: in_port, dl_src, dl_dst, dl_type).
 */

#ifndef MIRAGE_PROTOCOLS_OPENFLOW_WIRE_H
#define MIRAGE_PROTOCOLS_OPENFLOW_WIRE_H

#include <optional>
#include <vector>

#include "base/cstruct.h"
#include "base/result.h"
#include "net/addresses.h"

namespace mirage::openflow {

constexpr u8 ofVersion = 0x01;
constexpr std::size_t headerBytes = 8;
constexpr std::size_t matchBytes = 40;

enum class MsgType : u8 {
    Hello = 0,
    Error = 1,
    EchoRequest = 2,
    EchoReply = 3,
    FeaturesRequest = 5,
    FeaturesReply = 6,
    PacketIn = 10,
    PacketOut = 13,
    FlowMod = 14,
};

/** Special port numbers. */
constexpr u16 portFlood = 0xfffb;
constexpr u16 portController = 0xfffd;
constexpr u16 portNone = 0xffff;

/** Wildcard bits (subset of OFPFW_*). */
constexpr u32 wildcardInPort = 1 << 0;
constexpr u32 wildcardDlSrc = 1 << 2;
constexpr u32 wildcardDlDst = 1 << 3;
constexpr u32 wildcardDlType = 1 << 4;
constexpr u32 wildcardAll = 0x3fffff;

/** The 1.0 match structure (fields this library exercises). */
struct Match
{
    u32 wildcards = wildcardAll;
    u16 inPort = 0;
    net::MacAddr dlSrc;
    net::MacAddr dlDst;
    u16 dlType = 0;

    /** Exact match on L2 fields + in_port (learning-switch shape). */
    static Match l2Exact(u16 in_port, const net::MacAddr &src,
                         const net::MacAddr &dst, u16 dl_type);

    bool matchesFrame(u16 in_port, const Cstruct &frame) const;
};

struct OfHeader
{
    u8 version;
    MsgType type;
    u16 length;
    u32 xid;
};

Result<OfHeader> parseHeader(const Cstruct &data);

/** Parsed PACKET_IN. */
struct PacketIn
{
    u32 xid;
    u32 bufferId;
    u16 totalLen;
    u16 inPort;
    u8 reason;
    Cstruct frame;
};

Result<PacketIn> parsePacketIn(const Cstruct &msg);

/** Parsed PACKET_OUT (single output action supported). */
struct PacketOut
{
    u32 xid;
    u32 bufferId;
    u16 inPort;
    std::vector<u16> outputPorts;
    Cstruct frame;
};

Result<PacketOut> parsePacketOut(const Cstruct &msg);

/** Parsed FLOW_MOD (command add, output actions). */
struct FlowMod
{
    u32 xid;
    Match match;
    u16 command; //!< 0 = add
    u16 idleTimeout;
    u16 hardTimeout;
    u16 priority;
    u32 bufferId;
    std::vector<u16> outputPorts;
};

Result<FlowMod> parseFlowMod(const Cstruct &msg);

/** Parsed FEATURES_REPLY (datapath identity). */
struct FeaturesReply
{
    u32 xid;
    u64 datapathId;
    u32 nBuffers;
    u8 nTables;
};

Result<FeaturesReply> parseFeaturesReply(const Cstruct &msg);

// ---- Builders --------------------------------------------------------------

Cstruct buildHello(u32 xid);
Cstruct buildEchoReply(u32 xid);
Cstruct buildFeaturesRequest(u32 xid);
Cstruct buildFeaturesReply(u32 xid, u64 dpid, u32 n_buffers,
                           u8 n_tables);
Cstruct buildPacketIn(u32 xid, u32 buffer_id, u16 in_port, u8 reason,
                      const Cstruct &frame);
Cstruct buildPacketOut(u32 xid, u32 buffer_id, u16 in_port,
                       const std::vector<u16> &out_ports,
                       const Cstruct &frame);
Cstruct buildFlowMod(u32 xid, const Match &match, u16 priority,
                     u32 buffer_id, const std::vector<u16> &out_ports);

/**
 * Stream framer: feeds TCP data in, yields complete OF messages.
 */
class MessageFramer
{
  public:
    void feed(const Cstruct &data);

    /** Next complete message, if any. */
    std::optional<Cstruct> next();

    u64 framingErrors() const { return errors_; }

  private:
    std::vector<u8> buf_;
    u64 errors_ = 0;
};

} // namespace mirage::openflow

#endif // MIRAGE_PROTOCOLS_OPENFLOW_WIRE_H
