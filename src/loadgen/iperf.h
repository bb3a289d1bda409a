/**
 * @file
 * iperf-style TCP bulk-transfer measurement (Fig 8): the sender keeps
 * the connection's send window full for a measurement window; the
 * receiver counts delivered bytes.
 */

#ifndef MIRAGE_LOADGEN_IPERF_H
#define MIRAGE_LOADGEN_IPERF_H

#include <functional>
#include <memory>

#include "core/cloud.h"

namespace mirage::loadgen {

/** Receiver: accepts flows and counts payload bytes. */
class IperfServer
{
  public:
    IperfServer(core::Guest &guest, u16 port);

    u64 bytesReceived() const { return bytes_; }

  private:
    u64 bytes_ = 0;
};

/** Sender side: one or more parallel flows. */
class IperfClient
{
  public:
    struct Report
    {
        u64 bytesSent = 0;
        double mbps = 0;
        u64 retransmits = 0;
    };

    /**
     * Run @p flows parallel bulk flows for @p window and report the
     * aggregate goodput measured at the receiver.
     */
    static void run(core::Guest &client, const IperfServer &server,
                    net::Ipv4Addr dst, u16 port, u32 flows,
                    Duration window,
                    std::function<void(Report)> done);
};

} // namespace mirage::loadgen

#endif // MIRAGE_LOADGEN_IPERF_H
