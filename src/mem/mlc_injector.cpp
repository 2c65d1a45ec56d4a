#include "mem/mlc_injector.h"

#include <algorithm>

namespace smartds::mem {

namespace {

/** Size of one injected request: a cache line. */
constexpr Bytes requestBytes = 64;

} // namespace

MlcInjector::MlcInjector(MemorySystem &memory, Config config)
    : config_(config), flow_(memory.createFlow("mlc-injector"))
{
}

BytesPerSecond
MlcInjector::demandFor(unsigned delay_cycles) const
{
    if (delay_cycles == offDelay)
        return 0.0;
    // One request of requestBytes per (delay + issue) cycles per core;
    // the issue cost itself is roughly the cycles a streaming kernel
    // needs per line, folded into mlcPerCoreBandwidth at delay 0.
    const double delay_s =
        static_cast<double>(delay_cycles) / calibration::hostCoreHz;
    const double issue_s = static_cast<double>(requestBytes) /
                           calibration::mlcPerCoreBandwidth;
    const double per_core =
        static_cast<double>(requestBytes) / (delay_s + issue_s);
    const double capped =
        std::min(per_core, calibration::mlcPerCoreBandwidth);
    return capped * static_cast<double>(config_.cores);
}

void
MlcInjector::setDelayCycles(unsigned delay_cycles)
{
    flow_->setDemand(demandFor(delay_cycles));
}

} // namespace smartds::mem
