/**
 * @file
 * SmartDS-based middle-tier server (paper Sections 4 and 5).
 *
 * This is the middle-tier *application*: host software written against
 * the SmartDS Table 2 API, structured exactly like the paper's Listing 1.
 * Worker coroutines post dev_mixed_recv descriptors so that request
 * headers land in host memory while payloads stay in device HBM, and
 * parse the headers on the CPU. Each request then runs the datapath all
 * four designs share (PerRequestServer), whose cost hooks are SmartDS's
 * device calls: on-card compression and RS coding with dev_func, replica
 * sends and fetches with dev_mixed_send/recv on the worker's queue pairs,
 * verification on the LZ4 and checksum engines — the host never touches a
 * payload byte.
 */

#ifndef SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_
#define SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/per_request_server.h"
#include "sim/process.h"
#include "smartds/device.h"

namespace smartds::middletier {

/** Middle tier built on the SmartDS SmartNIC. */
class SmartDsServer : public PerRequestServer
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
     * request it serves. A worker serves one request at a time and waits
     * for every replica of a write before the next, so the hooks read the
     * request's buffers from here; the worker's index is the owner the
     * shared datapath passes them.
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
        /** Completes once every replica of the write has retired. */
        std::optional<sim::Completion> replicated;
        /** Payload bytes the last fetch reply landed in HBM. */
        Bytes fetched = 0;
        /** The gathered shards of an EC read, for the RS engine. */
        std::vector<std::pair<unsigned, device::BufferRef>> stripe;
    };

    sim::Process worker(Worker &w);

    // --- Cost hooks: SmartDS's device calls ------------------------------

    /** The worker has parsed the header already. */
    sim::Task parse(const net::Message &req) override;
    /** LZ4 engine into dSend, skipped for latency-sensitive writes. */
    sim::Task compress(WriteJob &w) override;
    /** RS engine into the shard buffers. */
    sim::Task ecEncode(WriteJob &w) override;
    /** Tie the write's buffers to its fan-out, for the replica sends. */
    void stageReplicas(WriteJob &w, WriteFanout &f) override;
    /**
     * Reset and re-target the fetch QP, post the receive into dSend (or
     * the shard's buffer), send the fetch, then arm the QP-reset timer.
     */
    sim::Task probe(unsigned owner, const net::Message &msg,
                    Probe &p) override;
    /** LZ4 engine into dRecv, then the header checksum. */
    sim::Task verifyReplica(unsigned owner, const net::Message &msg,
                            Probe &p, ReadResult &out) override;
    /** Checksum engine over the shard's buffer. */
    sim::Task verifyShard(unsigned owner, const net::Message &msg,
                          const Probe &p, bool &corrupt) override;
    /** RS engine into dSend, LZ4 engine into dRecv, header checksum. */
    sim::Task rebuildStripe(unsigned owner, const net::Message &msg,
                            const Stripe &s, ReadResult &out) override;
    /** Nothing left: verification already decompressed on-card. */
    sim::Task decompress(const net::Message &req, Bytes in,
                         Bytes out) override;
    /** Copy the plaintext into dRecv over the HBM flow, or at host cost. */
    sim::Task cacheHit(unsigned owner, const net::Message &req,
                       const HotBlockCache::Entry &block) override;
    /** Send on the worker's reply QP and await the send completion. */
    sim::Task toClient(unsigned owner, net::Message reply) override;

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

    /**
     * Serve the @p plain bytes the LZ4 engine left in @p w's dRecv into
     * @p out, unless the engine flagged them or (functional mode) they
     * miss the checksum in the fetched header; @p unstamped_ok accepts a
     * header without one.
     */
    void acceptPlain(const Worker &w, Bytes plain, bool unstamped_ok,
                     ReadResult &out) const;

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

    SmartDsConfig smartds_;
    std::unique_ptr<device::SmartDsDevice> device_;
    host::CorePool cores_;
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
