#include "trace/telemetry.h"

#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace mirage::trace {

Telemetry::Telemetry()
{
    if (const char *env = std::getenv("MIRAGE_FLIGHT");
        env && env[0] && std::strcmp(env, "0") != 0) {
        std::size_t n = std::size_t(std::strtoull(env, nullptr, 10));
        tracer.setFlightCapacity(n ? n : 4096);
        tracer.enable();
        const char *path = std::getenv("MIRAGE_FLIGHT_PATH");
        flight_path_ = path && path[0] ? path : "flight.json";
        setPanicHook([this] { dumpFlight(); });
    }
}

Telemetry::~Telemetry()
{
    // The panic hook captures `this`; a late panic must not reach a
    // destructed bundle.
    if (!flight_path_.empty())
        setPanicHook({});
}

void
Telemetry::dumpFlight()
{
    if (flight_path_.empty() || flight_dumped_)
        return;
    flight_dumped_ = true;
    if (Status st = writeFile(flight_path_, tracer.toChromeJson());
        !st.ok()) {
        warn("flight: %s", st.error().message.c_str());
        return;
    }
    warn("flight: dumped %zu events (%llu dropped) to %s",
         tracer.eventCount(), (unsigned long long)tracer.droppedEvents(),
         flight_path_.c_str());
}

} // namespace mirage::trace
