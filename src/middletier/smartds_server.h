/**
 * @file
 * SmartDS-based middle-tier server (paper Sections 4 and 5).
 *
 * This is the middle-tier *application*: host software written against
 * the SmartDS Table 2 API, structured exactly like the paper's Listing 1.
 * Worker coroutines post dev_mixed_recv descriptors so that request
 * headers land in host memory while payloads stay in device HBM, parse
 * the headers on the CPU, invoke on-card compression with dev_func, and
 * replicate with dev_mixed_send — the host never touches a payload byte.
 */

#ifndef SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_
#define SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_

#include <memory>
#include <vector>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/server_base.h"
#include "sim/process.h"
#include "smartds/device.h"

namespace smartds::middletier {

/** Middle tier built on the SmartDS SmartNIC. */
class SmartDsServer : public MiddleTierServer
{
  public:
    struct SmartDsConfig
    {
        /** Networking ports to use on the card (the Fig. 10 sweep). */
        unsigned ports = 1;
        /**
         * Concurrent worker pipelines per port. Each worker owns its
         * buffers and queue pairs; enough workers must be in flight to
         * cover the request round-trip at line rate.
         */
        unsigned workersPerPort = 128;
        /** Largest data block a request may carry. */
        Bytes maxBlockBytes = calibration::storageBlockBytes;
        /** Device configuration overrides. */
        device::SmartDsDevice::Config device;
    };

    SmartDsServer(net::Fabric &fabric, mem::MemorySystem &memory,
                  ServerConfig config, SmartDsConfig smartds);

    net::NodeId frontNode(unsigned port = 0) const override;
    net::QpId frontQp(unsigned port = 0) const override;
    unsigned frontPorts() const override { return smartds_.ports; }
    Design design() const override { return Design::SmartDs; }
    void addUsageProbes(UsageProbes &probes) override;
    host::CorePool *servingCores() override { return &cores_; }

    device::SmartDsDevice &smartNic() { return *device_; }
    host::CorePool &cores() { return cores_; }

  private:
    sim::Process worker(unsigned port);
    /**
     * Background resend of an abandoned replica: a one-shot queue pair
     * and snapshot buffers, so it survives the originating request's
     * buffer reuse (invoked from the maintenance repair queue).
     */
    sim::Process repairReplica(unsigned port, net::NodeId dst,
                               device::BufferRef h, device::BufferRef d,
                               Bytes size, std::uint64_t tag, Tick issue);

    sim::Simulator &sim_;
    net::Fabric &fabric_;
    ServerConfig config_;
    SmartDsConfig smartds_;
    std::unique_ptr<device::SmartDsDevice> device_;
    host::CorePool cores_;
    Rng rng_;
    /** The shared request queue pair of each port (clients send here). */
    std::vector<device::SmartDsDevice::Qp> requestQps_;
    /**
     * HBM-resident read cache: the capacity reservation charged against
     * the device memory budget and the bandwidth flow each hit's DRAM
     * read is billed to. Null when the cache is off or host-placed.
     */
    device::BufferRef cacheReservation_;
    sim::FairShareResource::Flow *cacheFlow_ = nullptr;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_
