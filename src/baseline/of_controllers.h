/**
 * @file
 * OpenFlow controller contenders for Fig 11. Every variant runs this
 * repository's real controller + learning-switch application over real
 * TCP; the profiles model what distinguishes the architectures:
 *
 *  - NOX destiny-fast: hand-optimised C++, lowest per-message work,
 *    but a userspace process (syscalls; amortised in batch mode);
 *  - Maestro: JVM factor on the same work plus periodic GC pauses,
 *    also userspace;
 *  - Mirage: the type-safe unikernel — higher per-message work than
 *    optimised C++, but no kernel/userspace boundary at all.
 *
 * Batch mode reads whole 64 kB buffers of packet-ins per syscall;
 * single mode pays the boundary for every message — the structural
 * reason every userspace controller drops hardest in Fig 11's
 * "single" columns.
 */

#ifndef MIRAGE_BASELINE_OF_CONTROLLERS_H
#define MIRAGE_BASELINE_OF_CONTROLLERS_H

#include <memory>

#include "baseline/conventional.h"
#include "protocols/openflow/controller.h"

namespace mirage::baseline {

class OfControllerAppliance
{
  public:
    enum class Kind { Mirage, NoxFast, Maestro };

    static const char *name(Kind kind);

    struct Profile
    {
        /** Algorithmic work per packet-in (learning + flow setup). */
        double perMsgWorkNs;
        /** Runtime factor (JVM, type-safe runtime, ...). */
        double workFactor;
        /** Crosses the kernel/userspace boundary. */
        bool userspace;
        /** GC pause injected every N messages (0 = never). */
        double gcPauseNs;
        u64 gcEveryMsgs;

        static Profile of(Kind kind);
    };

    OfControllerAppliance(core::Cloud &cloud, Kind kind,
                          net::Ipv4Addr ip, bool batch_mode);

    core::Guest &guest() { return guest_; }
    openflow::Controller &controller() { return *controller_; }

  private:
    void chargePerMessage();

    Kind kind_;
    Profile profile_;
    bool batch_mode_;
    core::Guest &guest_;
    std::unique_ptr<SyscallLayer> sys_;
    std::unique_ptr<openflow::LearningSwitchApp> app_;
    std::unique_ptr<openflow::Controller> controller_;
    u64 handled_ = 0;
};

} // namespace mirage::baseline

#endif // MIRAGE_BASELINE_OF_CONTROLLERS_H
