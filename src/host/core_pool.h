/**
 * @file
 * Host CPU core model.
 *
 * A CorePool is a set of logical cores a server design is configured to
 * use. Work items queue FIFO for a free core and hold it for a duration
 * the caller computes; the pool itself tracks utilisation. SMT effects are
 * captured by the software-rate helpers below: the paper measures ~2.1
 * Gbps LZ4 per lone logical core but only ~2.7 Gbps for the two siblings
 * of one physical core, so per-core rates depend on how many logical
 * cores the configuration occupies.
 */

#ifndef SMARTDS_HOST_CORE_POOL_H_
#define SMARTDS_HOST_CORE_POOL_H_

#include <string>

#include "common/calibration.h"
#include "common/time.h"
#include "common/units.h"
#include "sim/parking.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::host {

/** FIFO pool of identical logical cores. */
class CorePool
{
  public:
    CorePool(sim::Simulator &sim, std::string name, unsigned cores);

    /**
     * Run a work item of @p duration on the next free core, then invoke
     * @p done. Items are served FIFO.
     */
    void execute(Tick duration, sim::EventCallback done);

    /** Awaitable variant of execute(). */
    sim::Completion executeAsync(Tick duration);

    /**
     * Acquire a core without a predeclared duration; the returned
     * Completion fires when a core is held. Call release() when done.
     */
    sim::Completion acquire();

    /** Release a core obtained with acquire(). */
    void release();

    unsigned cores() const { return cores_; }
    unsigned busy() const { return busy_; }
    std::size_t queueDepth() const { return waiting_.size(); }

    /**
     * Aggregate busy time across cores (core-ticks), an occupancy
     * integral covering both execute() and acquire()/release() use.
     */
    Tick busyTicks() const;

  private:
    /**
     * A queued item: an execute() of @p duration, or an acquire() grant
     * (@p grant), whose callback then runs as soon as a core frees.
     */
    struct Waiting
    {
        sim::EventCallback fn;
        Tick duration = 0;
        bool grant = false;
    };

    /** Fold the occupancy since the last change into the integral. */
    void accrue();

    /** Hold a core for @p duration, then run @p done and release it. */
    void start(Tick duration, sim::EventCallback done);

    sim::Simulator &sim_;
    std::string name_;
    unsigned cores_;
    unsigned busy_ = 0;
    Tick busyTicks_ = 0;
    Tick lastAccrue_ = 0;
    sim::Ring<Waiting> waiting_;
    /**
     * Callbacks of items holding a core, by slot: the completion event
     * captures the slot, since a closure holding a callback would not fit
     * the event's inline buffer.
     */
    sim::SlotTable<sim::EventCallback> running_;
};

/**
 * Aggregate software LZ4 compression rate of @p cores_used logical cores,
 * assuming the scheduler fills distinct physical cores first: the first
 * 24 logical cores contribute the lone-core rate; each further logical
 * core is an SMT sibling contributing only the pair increment.
 */
BytesPerSecond softwareCompressionRate(unsigned cores_used);

/** softwareCompressionRate() divided by the core count. */
BytesPerSecond perCoreCompressionRate(unsigned cores_used);

/** Software decompression rate (paper: >7x compression). */
BytesPerSecond softwareDecompressionRate(unsigned cores_used);

} // namespace smartds::host

#endif // SMARTDS_HOST_CORE_POOL_H_
