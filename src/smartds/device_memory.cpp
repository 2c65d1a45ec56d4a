#include "smartds/device_memory.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::device {

DeviceMemory::DeviceMemory(sim::Simulator &sim, const std::string &name,
                           Bytes capacity, bool functional)
    : capacity_(capacity), functional_(functional),
      share_(sim, name + ".hbm", calibration::smartdsHbmBandwidth)
{
}

BufferRef
DeviceMemory::alloc(Bytes size)
{
    SMARTDS_CHECK(used_ + size >= used_,
                  "allocation of %llu bytes overflows the address space",
                  static_cast<unsigned long long>(size));
    if (used_ + size > capacity_)
        fatal("device memory exhausted: %llu + %llu > %llu bytes",
              static_cast<unsigned long long>(used_),
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(capacity_));
    const std::uint64_t addr = used_;
    used_ += size;
    ++allocations_;
    // Bump-allocator accounting: the high-water mark can never pass the
    // capacity check above, and every byte handed out is inside [0, used_).
    SMARTDS_SIM_INVARIANT(
        used_ <= capacity_,
        "HBM accounting broke: used %llu of %llu bytes after %llu allocs",
        static_cast<unsigned long long>(used_),
        static_cast<unsigned long long>(capacity_),
        static_cast<unsigned long long>(allocations_));
    SMARTDS_SIM_INVARIANT(
        addr + size == used_,
        "HBM buffer [%llu, %llu) does not abut the bump pointer %llu",
        static_cast<unsigned long long>(addr),
        static_cast<unsigned long long>(addr + size),
        static_cast<unsigned long long>(used_));
    return std::make_shared<Buffer>(MemorySpace::Device, addr, size,
                                    functional_);
}

sim::FairShareResource::Flow *
DeviceMemory::createFlow(std::string name, double weight)
{
    return share_.createFlow(std::move(name), weight);
}

} // namespace smartds::device
