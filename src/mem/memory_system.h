/**
 * @file
 * Host memory subsystem model.
 *
 * Bandwidth is a weighted fair-share resource (the behaviour of a modern
 * multi-channel memory controller under concurrent streams), and access
 * latency follows a loaded-latency curve: near-idle accesses cost the idle
 * latency, while accesses under heavy antagonist pressure queue behind
 * controller backlogs and cost many times more. This is the mechanism
 * behind the paper's Figure 4 (RDMA throughput collapsing to ~46% under
 * full MLC pressure) and Figure 9 (middle-tier interference).
 */

#ifndef SMARTDS_MEM_MEMORY_SYSTEM_H_
#define SMARTDS_MEM_MEMORY_SYSTEM_H_

#include <string>

#include "common/calibration.h"
#include "common/time.h"
#include "common/units.h"
#include "sim/fair_share.h"
#include "sim/simulator.h"

namespace smartds::mem {

/** Host (or device) DRAM with fair-shared bandwidth and loaded latency. */
class MemorySystem
{
  public:
    struct Config
    {
        /** Achievable aggregate bandwidth, bytes/second. */
        BytesPerSecond capacity = calibration::hostMemoryBandwidth;
    };

    MemorySystem(sim::Simulator &sim, std::string name, Config config);

    /** The bandwidth resource calls back into this object. */
    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Create a bandwidth flow (a DMA stream, a core's traffic, ...). */
    sim::FairShareResource::Flow *createFlow(std::string name,
                                             double weight = 1.0);

    /** Current access latency given the recent average utilisation. */
    Tick loadedLatency() const;

    /**
     * Exponentially time-averaged fraction of capacity in use (~20 us
     * horizon). The bandwidth resource's instantaneous figure is 1.0
     * whenever any elastic transfer is in progress; the latency curve and
     * the designs' sustained-load models want this average instead.
     */
    double utilization() const;

    BytesPerSecond capacity() const { return share_.capacity(); }

    sim::Simulator &simulator() { return sim_; }

  private:
    /**
     * Fold the utilisation in force since the last fold into the average.
     * The resource calls it before every change of its allocation; reads
     * call it too, without changing simulation state.
     */
    void foldAverage() const;

    sim::Simulator &sim_;
    mutable double average_ = 0.0;
    mutable Tick averagedAt_ = 0;
    sim::FairShareResource share_;
};

} // namespace smartds::mem

#endif // SMARTDS_MEM_MEMORY_SYSTEM_H_
