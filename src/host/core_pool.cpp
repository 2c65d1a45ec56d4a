#include "host/core_pool.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::host {

CorePool::CorePool(sim::Simulator &sim, std::string name, unsigned cores)
    : sim_(sim), name_(std::move(name)), cores_(cores)
{
    SMARTDS_CHECK(cores > 0, "core pool '%s' needs at least one core",
                   name_.c_str());
}

void
CorePool::accrue()
{
    const Tick now = sim_.now();
    busyTicks_ += static_cast<Tick>(busy_) * (now - lastAccrue_);
    lastAccrue_ = now;
}

Tick
CorePool::busyTicks() const
{
    return busyTicks_ +
           static_cast<Tick>(busy_) * (sim_.now() - lastAccrue_);
}

void
CorePool::execute(Tick duration, sim::EventCallback done)
{
    if (busy_ < cores_) {
        accrue();
        ++busy_;
        start(duration, std::move(done));
    } else {
        waiting_.push(Waiting{std::move(done), duration, false});
    }
}

void
CorePool::start(Tick duration, sim::EventCallback done)
{
    const std::uint32_t ticket = running_.park(std::move(done));
    sim_.schedule(
        duration,
        [this, ticket]() {
            running_.take(ticket)();
            release();
        },
        sim::EventTag::Host);
}

sim::Completion
CorePool::executeAsync(Tick duration)
{
    sim::Completion c(sim_);
    execute(duration, [c]() mutable { c.complete(0); });
    return c;
}

sim::Completion
CorePool::acquire()
{
    sim::Completion c(sim_);
    auto grant_fn = [c]() mutable { c.complete(0); };
    if (busy_ < cores_) {
        accrue();
        ++busy_;
        // Complete via the event queue for deterministic ordering.
        sim_.schedule(0, std::move(grant_fn), sim::EventTag::Host);
    } else {
        waiting_.push(Waiting{std::move(grant_fn), 0, true});
    }
    return c;
}

void
CorePool::release()
{
    SMARTDS_CHECK(busy_ > 0, "core pool '%s' release underflow",
                   name_.c_str());
    if (!waiting_.empty()) {
        Waiting next = waiting_.pop();
        // Core stays busy and is handed to the next item.
        if (next.grant)
            next.fn();
        else
            start(next.duration, std::move(next.fn));
    } else {
        accrue();
        --busy_;
    }
}

BytesPerSecond
softwareCompressionRate(unsigned cores_used)
{
    using namespace calibration;
    const BytesPerSecond lone = lz4CompressPerCore;
    const BytesPerSecond sibling = lz4CompressPerSmtPair - lz4CompressPerCore;
    if (cores_used <= hostPhysicalCores)
        return lone * cores_used;
    const unsigned siblings = cores_used - hostPhysicalCores;
    return lone * hostPhysicalCores + sibling * siblings;
}

BytesPerSecond
perCoreCompressionRate(unsigned cores_used)
{
    SMARTDS_CHECK(cores_used > 0, "need at least one core");
    return softwareCompressionRate(cores_used) / cores_used;
}

BytesPerSecond
softwareDecompressionRate(unsigned cores_used)
{
    return softwareCompressionRate(cores_used) *
           calibration::lz4DecompressSpeedup;
}

} // namespace smartds::host
