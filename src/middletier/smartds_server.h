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
    /**
     * One Listing-1 worker pipeline: its buffers and queue pairs, and the
     * write it is fanning out. A worker serves one request at a time and
     * waits for every replica of a write before the next, so the replica
     * hooks read the write's buffers from here.
     */
    struct Worker
    {
        /** Index in workers_ (the fan-out records' owner). */
        unsigned id = 0;
        unsigned port = 0;
        device::BufferRef hRecv;
        device::BufferRef hSend;
        device::BufferRef hFetch;
        device::BufferRef dRecv;
        device::BufferRef dSend;
        /**
         * One storage-facing queue pair (and ack header buffer) per
         * replica slot, so a retry re-targeting one replica can reset its
         * own QP without tearing down a sibling's in-flight send or
         * pending ack receive.
         */
        std::vector<device::SmartDsDevice::Qp> replicaQps;
        std::vector<device::BufferRef> hAcks;
        /** RS shard buffers, one per slot (EC policy only). */
        std::vector<device::BufferRef> dShards;
        /** Zero-byte hint riding on header-only shard fetches. */
        device::BufferRef dHint;
        device::SmartDsDevice::Qp fetchQp;
        device::SmartDsDevice::Qp replyQp;
        // The write being replicated (its block, or the RS shards above).
        device::BufferRef sendBuf;
        Tick issue = 0;
        trace::TraceContext tctx;
    };

    sim::Process worker(Worker &w);

    /**
     * Re-target slot @p task.slot's queue pair at @p dst (a reset first,
     * so a late ack from the old peer cannot match the fresh descriptor),
     * post the ack receive and send the replica from the worker's
     * buffers.
     */
    void sendReplica(const ReplicaTask &task, net::NodeId dst,
                     bool first) override;
    /** Snapshot the replica's header and payload for a later resend. */
    sim::EventCallback repairSend(const ReplicaTask &task,
                                  net::NodeId dst) override;

    /** Route a replica ack receive's message into the ack table. */
    void forwardAck(const device::MessageRef &ack);

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
    /** Every worker, indexed by WriteFanout::owner. */
    std::vector<std::unique_ptr<Worker>> workers_;
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
