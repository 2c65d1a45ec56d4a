#include "sim/bandwidth_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::sim {

BandwidthServer::BandwidthServer(Simulator &sim, std::string name,
                                 BytesPerSecond rate, Tick base_latency)
    : sim_(sim), name_(std::move(name)), rate_(rate),
      baseLatency_(base_latency)
{
    SMARTDS_CHECK(rate > 0.0, "bandwidth server '%s' needs a positive rate",
                   name_.c_str());
}

void
BandwidthServer::transfer(Bytes bytes, EventCallback done)
{
    const Tick start = std::max(sim_.now(), freeAt_);
    const Tick service = transferTicks(bytes, rate_);
    freeAt_ = start + service;
    busy_ += service;
    totalBytes_ += bytes;
    sim_.scheduleAt(freeAt_ + baseLatency_, std::move(done));
}

Tick
BandwidthServer::backlog() const
{
    const Tick now = sim_.now();
    return freeAt_ > now ? freeAt_ - now : 0;
}

} // namespace smartds::sim
