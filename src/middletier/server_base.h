/**
 * @file
 * The interface of the four middle-tier designs the paper compares:
 * CPU-only, accelerator-enhanced ("Acc"), SoC-based SmartNIC ("BF2") and
 * SmartDS, with their shared configuration and counter types.
 *
 * The request protocol itself — fan-out with failover, ack and fetch
 * tables, node health, placement, the read cache — lives in
 * PerRequestServer, which every single-card design derives from. The
 * multi-card host (MultiCardSmartDsServer) implements this interface by
 * forwarding to its cards.
 */

#ifndef SMARTDS_MIDDLETIER_SERVER_BASE_H_
#define SMARTDS_MIDDLETIER_SERVER_BASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/calibration.h"
#include "middletier/hot_block_cache.h"
#include "net/message.h"

namespace smartds::corpus {
class BlockCodecCache;
}

namespace smartds::host {
class CorePool;
}

namespace smartds::middletier {

class ChunkManager;
class MaintenanceService;

/** Middle-tier design being simulated. */
enum class Design : std::uint8_t
{
    CpuOnly,
    Accelerator,
    Bf2,
    SmartDs,
};

/** Human-readable design label matching the paper's figure legends. */
const char *designName(Design d);

/** How a write's payload is made durable across storage nodes. */
enum class ReplicationPolicy : std::uint8_t
{
    /** Whole-block copies on `replication` nodes (paper: 3-way). */
    Replicate,
    /** RS(k, m) erasure-coded stripes on k + m nodes. */
    ErasureCode,
};

/** Erasure-coding geometry when policy is ErasureCode. */
struct EcConfig
{
    /** Data shards per stripe. */
    unsigned dataShards = 4;
    /** Parity shards per stripe (tolerated shard losses). */
    unsigned parityShards = 2;
};

/** Failure-handling knobs shared by all designs. */
struct FailoverConfig
{
    /** Initial per-replica ack timeout (0 disables timeouts entirely). */
    Tick ackTimeout = calibration::replicaAckTimeout;
    /** Ceiling for the exponential timeout backoff. */
    Tick ackTimeoutCap = calibration::replicaAckTimeoutCap;
    /** Retries per replica after the first attempt. */
    unsigned maxRetries = calibration::replicaMaxRetries;
    /**
     * Replica acks that complete the VM write (0 = all). With 2-of-3,
     * the VM ack leaves at the second ack and the straggler finishes in
     * the background (repaired via maintenance if it never does).
     */
    unsigned ackQuorum = 0;
};

/** Configuration shared by all designs. */
struct ServerConfig
{
    /** Logical cores the design may use (CPU cores; Arm cores for BF2). */
    unsigned cores = 2;
    /** Candidate storage servers for replica placement. */
    std::vector<net::NodeId> storageNodes;
    /** Replication factor for writes (paper: 3). */
    unsigned replication = calibration::replicationFactor;
    /** Durability policy: whole-block replication or RS(k, m) EC. */
    ReplicationPolicy policy = ReplicationPolicy::Replicate;
    /** RS geometry when policy is ErasureCode. */
    EcConfig ec;
    /**
     * Failure domain (rack / ToR) of each entry in storageNodes, parallel
     * by index. Empty = topology unknown: placement treats the pool as
     * one rack.
     */
    std::vector<unsigned> storageDomains;
    /** Storage targets one write fans out to under the current policy. */
    unsigned
    writeFanout() const
    {
        return policy == ReplicationPolicy::ErasureCode
                   ? ec.dataShards + ec.parityShards
                   : replication;
    }
    /** Compression effort the tier applies when not latency sensitive. */
    int effort = 1;
    /** Seed for replica placement and jitter. */
    std::uint64_t seed = 7;
    /**
     * Segment/chunk manager (Section 2.1). When set, replica placement
     * is per-chunk and sticky, and per-chunk write counters feed the
     * compaction bookkeeping; when null, replicas are placed per request
     * (the simpler model).
     */
    ChunkManager *chunkManager = nullptr;
    /** Failure handling (timeouts, retries, quorum). */
    FailoverConfig failover;
    /**
     * Optional corpus codec cache for the functional datapath. Lookups
     * are hash-guarded (see corpus::BlockCodecCache), so enabling it
     * changes wall-clock cost only, never results.
     */
    const corpus::BlockCodecCache *blockCache = nullptr;
    /**
     * Hot-block read cache (capacityBytes == 0 disables it). Entries
     * hold checksum-verified plaintext keyed by (vmId, blockOffset) and
     * are invalidated on writes, checksum failovers and reconstruction
     * events, so enabling the cache never changes served bytes.
     */
    ReadCacheConfig readCache;
};

/** Cumulative failure-handling counters a server exposes. */
struct FailoverStats
{
    /** Replica ack timeouts observed. */
    std::uint64_t replicaTimeouts = 0;
    /** Replica sends re-issued after a timeout. */
    std::uint64_t replicaRetries = 0;
    /** Retries that moved the replica to a different node. */
    std::uint64_t replicaReplacements = 0;
    /** Replicas given up on after exhausting retries. */
    std::uint64_t replicasAbandoned = 0;
    /** Acks/fetch replies that arrived after their wait was retired. */
    std::uint64_t staleAcks = 0;
    /** Nodes that crossed the suspicion threshold. */
    std::uint64_t nodesSuspected = 0;
    /** Writes acknowledged to the VM at quorum (stragglers pending). */
    std::uint64_t quorumCompletions = 0;
    /** Background replica repairs handed to the maintenance service. */
    std::uint64_t repairsScheduled = 0;
    /** Read-path corruption detections (checksum / engine failures). */
    std::uint64_t corruptionsDetected = 0;
    /** Reads that failed over to another replica. */
    std::uint64_t readFailovers = 0;
    /** Reads that exhausted every replica without clean data. */
    std::uint64_t readsUnserved = 0;
    /** RS(k, m) stripes encoded on the write path. */
    std::uint64_t stripesEncoded = 0;
    /** EC reads that lost >= 1 shard and had to decode from parity. */
    std::uint64_t degradedReads = 0;
    /**
     * Payload bytes pushed to storage nodes, including retries — the
     * numerator of the network-amplification metric (3x for 3-rep,
     * (k+m)/k for RS(k, m), plus failover resends).
     */
    std::uint64_t replicaBytesSent = 0;

    FailoverStats &operator+=(const FailoverStats &o);
};

/**
 * Cumulative named counters a server exposes (bytes moved on memory
 * flows, PCIe directions, ...). Benchmarks snapshot them at the start and
 * end of the measurement window and report rates (Figure 8).
 */
struct UsageProbes
{
    struct Probe
    {
        std::string name;
        std::function<double()> cumulativeBytes;
    };
    std::vector<Probe> probes;

    void
    add(std::string name, std::function<double()> fn)
    {
        probes.push_back({std::move(name), std::move(fn)});
    }
};

/**
 * A middle tier as the experiment harness sees it: where VMs send, what
 * it counts, and the repair queue it hands abandoned replicas to.
 */
class MiddleTierServer
{
  public:
    MiddleTierServer() = default;
    // Designs hand `this` to their ports, NICs and coroutines.
    MiddleTierServer(const MiddleTierServer &) = delete;
    MiddleTierServer &operator=(const MiddleTierServer &) = delete;
    virtual ~MiddleTierServer() = default;

    /** Node id VMs address write requests to, per front-end port. */
    virtual net::NodeId frontNode(unsigned port = 0) const = 0;

    /** Number of front-end ports accepting VM traffic. */
    virtual unsigned frontPorts() const { return 1; }

    /** Queue pair VMs address on @p port (designs without QPs return 0). */
    virtual net::QpId frontQp(unsigned port = 0) const
    {
        (void)port;
        return 0;
    }

    virtual Design design() const = 0;

    /** Register the design's own cumulative byte counters. */
    virtual void addUsageProbes(UsageProbes &probes) = 0;

    /** Failure-handling counters (aggregated over cards for MultiCard). */
    virtual FailoverStats failoverStats() const = 0;

    /** Hot-block cache counters (zeros when the cache is disabled). */
    virtual HotBlockCache::Stats readCacheStats() const = 0;

    /**
     * The cores that serve requests, for maintenance that shares them
     * (ExperimentConfig::Maintenance::SharedCores); null when the design
     * gives maintenance a pool of its own.
     */
    virtual host::CorePool *servingCores() { return nullptr; }

    /**
     * Background repair sink for abandoned replicas (quorum mode). Set
     * after construction because the maintenance service shares the
     * server's core pool and is built second.
     */
    virtual void setMaintenanceService(MaintenanceService *m) = 0;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_SERVER_BASE_H_
