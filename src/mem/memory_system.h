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
        /** Access latency with the controller idle. */
        Tick idleLatency = calibration::hostMemoryIdleLatency;
        /**
         * Additional latency at full utilisation. Calibrated so that a
         * window-limited 100 Gbps DMA stream degrades to ~46% under full
         * MLC pressure, the paper's Figure 4 endpoint.
         */
        Tick loadedExtraLatency = 3900 * ticksPerNanosecond;
        /** Shape of the latency curve (higher = sharper knee). */
        double latencyExponent = 3.0;
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
    const Config &config() const { return config_; }

  private:
    /**
     * Fold the utilisation in force since the last fold into the average.
     * The resource calls it before every change of its allocation; reads
     * call it too, without changing simulation state.
     */
    void foldAverage() const;

    sim::Simulator &sim_;
    Config config_;
    mutable double average_ = 0.0;
    mutable Tick averagedAt_ = 0;
    sim::FairShareResource share_;
};

/**
 * Last-level-cache / DDIO occupancy model.
 *
 * DDIO lets device DMA writes allocate into a subset of LLC ways and lets
 * device DMA reads hit there. Whether a read hits depends on whether the
 * written data is still resident, i.e. whether the live inter-DMA working
 * set fits the DDIO way capacity. The middle tier's intermediate buffers
 * (~32 ms lifetime, hundreds of MB at 100 Gbps) never fit, so buffered
 * data always spills to DRAM; only the in-flight pipeline working set can
 * hit (paper Section 3.2).
 */
class DdioModel
{
  public:
    struct Config
    {
        Bytes llcBytes = calibration::hostLlcBytes;
        unsigned llcWays = calibration::hostLlcWays;
        unsigned ddioWays = calibration::hostDdioWays;
        bool enabled = true;
    };

    DdioModel();
    explicit DdioModel(Config config);

    /** Capacity of the LLC ways DDIO may allocate into. */
    Bytes
    ddioCapacity() const
    {
        return config_.llcBytes * config_.ddioWays / config_.llcWays;
    }

    /**
     * Would a device read of data written @p age ago hit the LLC, given
     * the current DDIO write rate @p write_rate? Data is resident for
     * roughly capacity/rate after being written.
     */
    bool
    readHits(Tick age, BytesPerSecond write_rate) const
    {
        if (!config_.enabled)
            return false;
        if (write_rate <= 0.0)
            return true;
        const double residency_s =
            static_cast<double>(ddioCapacity()) / write_rate;
        return toSeconds(age) <= residency_s;
    }

    /**
     * Does a working set of @p footprint bytes fit in the DDIO ways (so
     * that writes need not spill to DRAM)?
     */
    bool
    writesContained(Bytes footprint) const
    {
        return config_.enabled && footprint <= ddioCapacity();
    }

    bool enabled() const { return config_.enabled; }
    const Config &config() const { return config_; }

  private:
    Config config_;
};

inline DdioModel::DdioModel() : config_() {}

inline DdioModel::DdioModel(Config config) : config_(config) {}

} // namespace smartds::mem

#endif // SMARTDS_MEM_MEMORY_SYSTEM_H_
