/**
 * @file
 * Back-end storage server model.
 *
 * Storage servers receive (compressed) replica blocks from the middle
 * tier, append them to disk, and acknowledge; for reads they fetch the
 * stored block and return it. The paper's evaluation keeps the storage
 * tier out of the bottleneck; this model gives it realistic NVMe append
 * latency and bounded ingest bandwidth, plus an optional functional store
 * that retains actual block bytes so integration tests can verify
 * write-read round trips byte-for-byte through the whole system.
 */

#ifndef SMARTDS_STORAGE_STORAGE_SERVER_H_
#define SMARTDS_STORAGE_STORAGE_SERVER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/calibration.h"
#include "faults/fault_injector.h"
#include "net/fabric.h"
#include "sim/bandwidth_server.h"
#include "sim/parking.h"

namespace smartds::storage {

/** One storage server attached to the fabric. */
class StorageServer
{
  public:
    struct Config
    {
        /** Disk ingest bandwidth. */
        BytesPerSecond ingestBandwidth = calibration::storageIngestBandwidth;
        /** Keep block bytes for functional read-back verification. */
        bool functionalStore = false;
    };

    StorageServer(net::Fabric &fabric, const std::string &name);
    StorageServer(net::Fabric &fabric, const std::string &name,
                  Config config);

    /** Node id VMs/middle tiers address replicas and fetches to. */
    net::NodeId nodeId() const { return port_->id(); }

    net::Port &port() { return *port_; }

    /** Number of blocks appended so far. */
    std::uint64_t blocksStored() const { return blocksStored_; }

    /** Total (compressed) bytes appended so far. */
    Bytes bytesStored() const { return bytesStored_; }

    /** Functional store lookup (empty payload if absent). */
    const net::Payload *storedBlock(std::uint64_t tag) const;

    /** Stored storage header (functional mode; null if absent). */
    std::shared_ptr<const std::vector<std::uint8_t>>
    storedHeader(std::uint64_t tag) const
    {
        const auto it = headers_.find(tag);
        return it == headers_.end() ? nullptr : it->second;
    }

    /**
     * Attach a fault profile (owned by a FaultInjector). The node id is
     * only known after construction, hence a setter rather than a Config
     * field. Null detaches.
     */
    void attachFaults(faults::FaultProfile *profile) { faults_ = profile; }

  private:
    /** A request inside disk_. */
    struct DiskOp
    {
        /**
         * The request, parked in the fabric; a fetch carries its reply's
         * payload and header there once they are looked up.
         */
        std::uint32_t ticket = 0;
        bool fetch = false;
        /** Fault-injected latency to add after a replica append. */
        Tick extra = 0;
    };

    /** This node's domain's parked messages (see Fabric::parked). */
    sim::SlotTable<net::Message> &
    parked()
    {
        return fabric_.parked(port_->domainIndex());
    }

    void handle(net::Message &&msg);
    void handleReplica(net::Message &&msg);
    void finishReplica(net::Message &&msg);
    void handleFetch(net::Message &&msg);
    void finishFetch(net::Message &&msg);

    /** disk_ completion: the oldest request's disk work is done. */
    void diskDone();

    net::Fabric &fabric_;
    Config config_;
    net::Port *port_;
    sim::BandwidthServer disk_;
    /** Requests inside disk_, oldest first (disk_ completes in order). */
    sim::Ring<DiskOp> diskOps_;
    faults::FaultProfile *faults_ = nullptr;
    std::uint64_t blocksStored_ = 0;
    Bytes bytesStored_ = 0;
    std::unordered_map<std::uint64_t, net::Payload> store_;
    /** Stored block-storage headers (functional mode; read-path verify). */
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const std::vector<std::uint8_t>>>
        headers_;
    /** Tags whose stored copy took a bit flip (timing mode bookkeeping). */
    std::unordered_set<std::uint64_t> corruptTags_;
};

} // namespace smartds::storage

#endif // SMARTDS_STORAGE_STORAGE_SERVER_H_
