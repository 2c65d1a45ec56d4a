#include "mem/memory_system.h"

#include <cmath>
#include <utility>

namespace smartds::mem {

namespace {

/** Averaging horizon of MemorySystem::utilization(). */
constexpr double utilizationTauSeconds = 20e-6;

/** Shape of the loaded-latency curve (higher = sharper knee). */
constexpr double latencyExponent = 3.0;

} // namespace

MemorySystem::MemorySystem(sim::Simulator &sim, std::string name,
                           Config config)
    : sim_(sim),
      share_(sim, std::move(name), config.capacity,
             [this]() { foldAverage(); })
{
}

void
MemorySystem::foldAverage() const
{
    const Tick now = sim_.now();
    const double dt = toSeconds(now - averagedAt_);
    if (dt > 0.0) {
        const double alpha = 1.0 - std::exp(-dt / utilizationTauSeconds);
        average_ += (share_.utilization() - average_) * alpha;
        averagedAt_ = now;
    }
}

double
MemorySystem::utilization() const
{
    foldAverage();
    return average_;
}

sim::FairShareResource::Flow *
MemorySystem::createFlow(std::string name, double weight)
{
    return share_.createFlow(std::move(name), weight);
}

Tick
MemorySystem::loadedLatency() const
{
    const double u = utilization();
    const double extra =
        static_cast<double>(calibration::hostMemoryLoadedExtraLatency) *
        std::pow(u, latencyExponent);
    return calibration::hostMemoryIdleLatency + static_cast<Tick>(extra);
}

} // namespace smartds::mem
