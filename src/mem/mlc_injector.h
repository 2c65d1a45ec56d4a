/**
 * @file
 * Intel MLC-style memory-pressure injector.
 *
 * The paper uses the Intel Memory Latency Checker to inject dummy memory
 * requests at a configurable rate ("delay between injected memory
 * requests", in core clock cycles) on a set of dedicated cores, for both
 * the Figure 4 microbenchmark (all 48 cores) and the Figure 9 interference
 * experiment (16 dedicated cores). This model reproduces that knob: each
 * injecting core issues 64-byte requests with the given inter-request
 * delay, up to a per-core streaming limit, and the aggregate appears as a
 * background demand flow on the MemorySystem.
 */

#ifndef SMARTDS_MEM_MLC_INJECTOR_H_
#define SMARTDS_MEM_MLC_INJECTOR_H_

#include <limits>

#include "common/calibration.h"
#include "mem/memory_system.h"

namespace smartds::mem {

/** A configurable bandwidth hog standing in for Intel MLC. */
class MlcInjector
{
  public:
    struct Config
    {
        /** Number of cores running the injector. */
        unsigned cores = 16;
    };

    /** Sentinel delay meaning "injector off". */
    static constexpr unsigned offDelay =
        std::numeric_limits<unsigned>::max();

    MlcInjector(MemorySystem &memory, Config config);

    /**
     * Set the inter-request delay in core cycles; 0 = maximum pressure,
     * offDelay = idle. Takes effect immediately.
     */
    void setDelayCycles(unsigned delay_cycles);

    /** Aggregate demand implied by @p delay_cycles, bytes/second. */
    BytesPerSecond demandFor(unsigned delay_cycles) const;

    /** Bandwidth the injector is currently being allocated. */
    BytesPerSecond achievedRate() const { return flow_->allocatedRate(); }

    /** Total bytes the injector has actually moved. */
    double deliveredBytes() const { return flow_->deliveredBytes(); }

  private:
    Config config_;
    sim::FairShareResource::Flow *flow_;
};

} // namespace smartds::mem

#endif // SMARTDS_MEM_MLC_INJECTOR_H_
