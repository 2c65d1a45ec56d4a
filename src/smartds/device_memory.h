/**
 * @file
 * SmartDS on-card device memory (VCU128 HBM).
 *
 * 8 GiB of HBM with ~3.4 Tbps of aggregate bandwidth shared fairly across
 * the per-port datapath flows (split writes, assemble reads, engine reads
 * and writes). Capacity is tracked by a simple bump allocator — the
 * middle-tier application allocates its buffer pool once at startup, as
 * in the paper's Listing 1.
 */

#ifndef SMARTDS_SMARTDS_DEVICE_MEMORY_H_
#define SMARTDS_SMARTDS_DEVICE_MEMORY_H_

#include <cstdint>
#include <string>

#include "common/calibration.h"
#include "sim/fair_share.h"
#include "smartds/buffers.h"

namespace smartds::device {

/** HBM capacity + bandwidth model with a bump allocator. */
class DeviceMemory
{
  public:
    DeviceMemory(sim::Simulator &sim, const std::string &name,
                 Bytes capacity, bool functional);

    /** Allocate @p size bytes; fatal on exhaustion (configuration error). */
    BufferRef alloc(Bytes size);

    /** Create a bandwidth flow on the HBM (a datapath user). */
    sim::FairShareResource::Flow *createFlow(std::string name,
                                             double weight = 1.0);

    Bytes capacity() const { return capacity_; }
    Bytes used() const { return used_; }
    bool functional() const { return functional_; }

  private:
    Bytes capacity_;
    Bytes used_ = 0;
    std::uint64_t allocations_ = 0;
    bool functional_;
    sim::FairShareResource share_;
};

} // namespace smartds::device

#endif // SMARTDS_SMARTDS_DEVICE_MEMORY_H_
