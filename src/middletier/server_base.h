/**
 * @file
 * Common interface and shared machinery of the four middle-tier designs
 * the paper compares: CPU-only, accelerator-enhanced ("Acc"), SoC-based
 * SmartNIC ("BF2") and SmartDS.
 *
 * Besides the virtual interface, this base carries the failure-awareness
 * every design shares: a timed per-replica acknowledgement table, the
 * replicateWithFailover() retry/re-placement loop, a NodeHealthView fed
 * by timeout observations, and the counters benchmarks and tests use to
 * observe failovers.
 */

#ifndef SMARTDS_MIDDLETIER_SERVER_BASE_H_
#define SMARTDS_MIDDLETIER_SERVER_BASE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/calibration.h"
#include "common/check.h"
#include "ec/reed_solomon.h"
#include "common/random.h"
#include "middletier/chunk_manager.h"
#include "middletier/hot_block_cache.h"
#include "middletier/node_health.h"
#include "middletier/placement.h"
#include "net/fabric.h"
#include "sim/flat_map.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::corpus {
class BlockCodecCache;
}

namespace smartds::host {
class CorePool;
}

namespace smartds::middletier {

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
    /** Consecutive timeouts before a node is suspected. */
    unsigned suspectThreshold = calibration::nodeSuspectThreshold;
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

/** Abstract middle-tier server. */
class MiddleTierServer
{
  public:
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

    /** Register cumulative byte counters for usage reporting. */
    virtual void addUsageProbes(UsageProbes &probes) = 0;

    /** Write requests fully served (replicated + acknowledged). */
    std::uint64_t requestsCompleted() const { return requestsCompleted_; }

    /** Failure-handling counters (aggregated over cards for MultiCard). */
    virtual FailoverStats failoverStats() const { return failover_; }

    /** Hot-block cache counters (zeros when the cache is disabled). */
    virtual HotBlockCache::Stats
    readCacheStats() const
    {
        return readCache_ ? readCache_->stats() : HotBlockCache::Stats{};
    }

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
    virtual void setMaintenanceService(MaintenanceService *m)
    {
        maintenance_ = m;
    }

  protected:
    /**
     * One write's fan-out, shared by the coroutine serving the write and
     * its replica tasks: the placement, the quorum and all-replicas
     * latches and, for the designs that send from host memory, the
     * message each slot sends. Records are recycled: openFanout() takes
     * one from the server's free list, and it goes back when its last
     * holder lets go. The serving coroutine and every replica task hold
     * it, so it outlives the write when the VM is acknowledged before
     * the stragglers ack.
     */
    struct WriteFanout
    {
        /** Storage node of each slot (whole-block replica or RS shard). */
        std::vector<net::NodeId> nodes;
        ChunkRef chunk;
        bool chunked = false;
        std::optional<sim::CountLatch> quorum;
        std::optional<sim::CountLatch> all;
        /**
         * Which part of the design serves the write: the front port for
         * the per-request designs, the worker for SmartDS.
         */
        unsigned owner = 0;
        /** Per-request designs: slot r's replica message (dst unset). */
        std::vector<net::Message> messages;
        /** The serving coroutine plus each replica task still running. */
        unsigned holders = 0;
    };

    /**
     * One replica of one write, driven by replicateWithFailover(): plain
     * data the design's sendReplica()/repairSend() hooks act on.
     */
    struct ReplicaTask
    {
        std::uint64_t tag = 0;
        Bytes blockBytes = 0;
        net::NodeId target = 0;
        // simlint: allow(event-handle-misuse): replica/RS-shard index
        // within the placement, not a recycled event pool slot
        unsigned slot = 0;
        WriteFanout *fanout = nullptr;
        /**
         * Whether this task carries one RS shard (slot = shard index)
         * rather than a whole-block replica. Abandoned shards are handed
         * to maintenance as k-fan-in reconstructions.
         */
        bool ec = false;
        /**
         * Block identity for read-cache coherence: abandoning a replica
         * schedules a repair whose reconstruction will rewrite the block,
         * so the cached copy is dropped at the same point.
         */
        std::uint64_t vmId = 0;
        std::uint64_t blockOffset = 0;
    };

    /**
     * A recycled fan-out record for the write @p msg, served by @p owner:
     * placed by placeWrite(), its latches set under @p config's quorum
     * rule, and held once by the caller and once per slot (the replica
     * tasks the caller spawns).
     */
    WriteFanout &openFanout(sim::Simulator &sim, const ServerConfig &config,
                            const net::Message &msg, Rng &rng,
                            unsigned owner);

    /** Drop one hold on @p f; the last one recycles it. */
    void releaseFanout(WriteFanout &f);

    /**
     * Send @p task's replica to @p dst (first attempt, retry or
     * re-placement). @p first marks the write's very first send of slot
     * 0. Designs that serve writes override this.
     */
    virtual void sendReplica(const ReplicaTask &task, net::NodeId dst,
                             bool first);

    /**
     * A self-contained deferred resend of @p task to @p dst for the
     * maintenance repair queue. Called at abandon time, while the write
     * still holds its buffers; the callback runs after the write retired,
     * so it must snapshot what it sends. Null (the default) schedules no
     * repair.
     */
    virtual sim::EventCallback repairSend(const ReplicaTask &task,
                                          net::NodeId dst);

    void noteCompleted() { ++requestsCompleted_; }

    /**
     * Adopt per-design failover knobs and the storage topology (call
     * from the concrete ctor).
     */
    void
    initFailover(const ServerConfig &config)
    {
        health_.setSuspectThreshold(config.failover.suspectThreshold);
        placement_ = Placement(config.storageNodes, config.storageDomains);
        if (config.readCache.capacityBytes > 0)
            readCache_ = std::make_unique<HotBlockCache>(
                config.readCache.capacityBytes);
    }

    /**
     * Drop a block from the read cache (write / failover / reconstruction
     * coherence point). Returns whether an entry was actually dropped, so
     * callers can record a CacheInvalidate trace stage only when one was.
     */
    bool
    cacheInvalidate(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        return readCache_ && readCache_->invalidate(vm_id, block_offset);
    }

    /**
     * Drop @p req's block from the read cache, recording a
     * CacheInvalidate span at @p now when an entry was dropped.
     */
    void
    invalidateCached(const net::Message &req, trace::Tracer *tracer,
                     Tick now)
    {
        if (cacheInvalidate(req.vmId, req.blockOffset) && tracer)
            tracer->record(req.trace, trace::Stage::CacheInvalidate, now,
                           now);
    }

    /**
     * A read probe of @p target went unanswered — or, when @p stale, was
     * answered for an earlier wait: count the failover and, for a silent
     * node, strike its health.
     */
    void
    noteFetchMiss(net::NodeId target, bool stale = false)
    {
        ++failover_.readFailovers;
        if (stale)
            ++failover_.staleAcks;
        else if (health_.noteTimeout(target))
            ++failover_.nodesSuspected;
    }

    /** A fetched replica or shard failed verification; try another. */
    void
    noteCorruptFetch()
    {
        ++failover_.corruptionsDetected;
        ++failover_.readFailovers;
    }

    /**
     * A reassembled stripe failed verification: the read goes unserved
     * and @p req's cached copy is dropped.
     */
    void
    noteCorruptStripe(const net::Message &req, trace::Tracer *tracer,
                      Tick now)
    {
        ++failover_.corruptionsDetected;
        ++failover_.readsUnserved;
        invalidateCached(req, tracer, now);
    }

    /**
     * Placement for one write, into @p f: per-chunk sticky placement
     * through the chunk manager when configured (also recording the write
     * for compaction bookkeeping), one placement draw per request
     * otherwise (EC stripes always). Either way suspected nodes are
     * skipped while enough healthy ones remain.
     */
    void placeWrite(const ServerConfig &config, const net::Message &msg,
                    Rng &rng, WriteFanout &f);

    /**
     * Replica candidates for a replicated read of the block @p msg
     * addresses: the chunk's replica set when a chunk manager is
     * configured (reads must hit nodes that hold the data), the whole
     * pool otherwise. The chunk's set is copied into @p set, which is
     * inline, because a re-placement may change it while the read waits;
     * the result views @p set or config.storageNodes.
     */
    std::span<const net::NodeId> readCandidates(const ServerConfig &config,
                                                const net::Message &msg,
                                                ReplicaSet &set);

    /**
     * Register interest in a WriteReplicaAck for (@p tag, @p node). The
     * returned completion fires with 1 on the ack and 0 on timeout; the
     * timeout path needs no watcher coroutine, so an ack that never
     * arrives leaks nothing.
     */
    sim::Completion expectAck(sim::Simulator &sim, std::uint64_t tag,
                              net::NodeId node, Tick timeout);

    /** Route an arriving ack into the table (stale acks are counted). */
    void deliverAck(std::uint64_t tag, net::NodeId node);

    /**
     * Register interest in a ReadFetchReply for @p tag. The returned
     * completion fires with 1 on delivery and 0 on timeout. The timer
     * handle is held per-entry and cancelled on delivery, so a timer
     * armed for an earlier probe of the same tag can never fire into a
     * later probe's wait. The host designs' reads probe through this
     * table; SmartDS's probe resets its fetch queue pair instead.
     */
    sim::Completion expectFetch(sim::Simulator &sim, std::uint64_t tag,
                                Tick timeout);

    /**
     * Route an arriving fetch reply to its waiter (stale replies — the
     * wait already timed out and retired — are counted and dropped).
     */
    void deliverFetch(net::Message &&msg);

    /**
     * Take the reply payload stashed by deliverFetch() for @p tag.
     * Valid only after the expectFetch() completion fired with 1.
     */
    net::Message takeFetchReply(std::uint64_t tag);

    /**
     * Drive one replica to durability: send, await the ack with an
     * exponentially backed-off timeout, re-place onto a healthy node on
     * repeat failure, and after maxRetries hand the replica to the
     * maintenance repair queue. Arrives at the task's quorum/all latches
     * exactly once, whether the replica succeeded or was abandoned.
     */
    sim::Process replicateWithFailover(sim::Simulator &sim, Rng &rng,
                                       const ServerConfig &config,
                                       ReplicaTask task);

    /**
     * Move @p task's slot off @p bad, the node it keeps failing on: one
     * placement draw outside the write's current placement, which counts
     * against its racks' shares. The chunk's replica set follows.
     * @return the new node, or @p bad when the pool has no other.
     */
    net::NodeId moveReplica(const ServerConfig &config, Rng &rng,
                            const ReplicaTask &task, net::NodeId bad);

    /**
     * Acks this write needs before replying to the VM. Under erasure
     * coding the quorum never drops below k: fewer than k durable shards
     * cannot reconstruct the stripe, so an ackQuorum of 2 on RS(4, 2)
     * still waits for 4.
     */
    static unsigned
    writeQuorum(const ServerConfig &config, std::size_t replicas)
    {
        unsigned q = config.failover.ackQuorum;
        if (q == 0 || q > replicas)
            return static_cast<unsigned>(replicas);
        if (config.policy == ReplicationPolicy::ErasureCode &&
            q < config.ec.dataShards)
            q = config.ec.dataShards;
        return q;
    }

    /**
     * The RS codec for @p config's EC geometry (created on first use;
     * the geometry is fixed per server).
     */
    const ec::RsCodec &ecCodec(const ServerConfig &config);

    /**
     * Split one (compressed) block payload into k + m shard payloads.
     * Functional payloads are RS-encoded byte-for-byte, each shard
     * carrying an xxhash32 checksum of its bytes; timing-only payloads
     * get the shard geometry and sizes without data. Opens stripe @p tag
     * (openStripe()).
     */
    std::vector<net::Payload> encodeShards(const ServerConfig &config,
                                           std::uint64_t tag,
                                           const net::Payload &block);

    /**
     * Count stripe @p tag as encoded into @p shards shards, at the point
     * its shards exist. Checked builds also track which shards have
     * arrived (ack or abandon); a slot arriving twice or out of range
     * trips SMARTDS_SIM_INVARIANT.
     */
    void
    openStripe(std::uint64_t tag, unsigned shards)
    {
        ++failover_.stripesEncoded;
#if SMARTDS_CHECKED_BUILD
        SMARTDS_SIM_INVARIANT(!ecLedger_.count(tag),
                              "stripe %llu opened twice",
                              static_cast<unsigned long long>(tag));
        ecLedger_[tag].assign(shards, false);
#else
        (void)tag;
        (void)shards;
#endif
    }

    void
    // simlint: allow(event-handle-misuse): RS shard index within the
    // stripe ledger, not a recycled event pool slot
    ecLedgerArrive(std::uint64_t tag, unsigned slot)
    {
#if SMARTDS_CHECKED_BUILD
        const auto it = ecLedger_.find(tag);
        SMARTDS_SIM_INVARIANT(it != ecLedger_.end(),
                              "shard arrival for unopened stripe %llu",
                              static_cast<unsigned long long>(tag));
        auto &arrived = it->second;
        SMARTDS_SIM_INVARIANT(slot < arrived.size(),
                              "stripe %llu shard slot %u out of range",
                              static_cast<unsigned long long>(tag), slot);
        SMARTDS_SIM_INVARIANT(!arrived[slot],
                              "stripe %llu shard %u arrived twice",
                              static_cast<unsigned long long>(tag), slot);
        arrived[slot] = true;
        if (std::all_of(arrived.begin(), arrived.end(),
                        [](bool b) { return b; }))
            ecLedger_.erase(it);
#else
        (void)tag;
        (void)slot;
#endif
    }

    /** Register the failover counters with @p probes. */
    void addFailoverProbes(UsageProbes &probes);

    FailoverStats failover_;
    NodeHealthView health_;
    /** The storage pool and its racks (initFailover()). */
    Placement placement_;
    MaintenanceService *maintenance_ = nullptr;
    /** Hot-block read cache (null when disabled). */
    std::unique_ptr<HotBlockCache> readCache_;

  private:
    struct AckKey
    {
        std::uint64_t tag;
        net::NodeId node;
        bool
        operator==(const AckKey &o) const
        {
            return tag == o.tag && node == o.node;
        }
    };
    struct AckKeyHash
    {
        std::uint64_t
        operator()(const AckKey &k) const
        {
            return sim::mixBits(k.tag * 0x9e3779b97f4a7c15ULL ^ k.node);
        }
    };
    struct AckEntry
    {
        sim::Completion completion;
        sim::EventHandle timer;
    };
    /** One awaited fetch reply; the timer is cancelled on delivery. */
    struct FetchEntry
    {
        sim::Completion completion;
        sim::EventHandle timer;
    };

    std::uint64_t requestsCompleted_ = 0;
    sim::FlatMap<AckKey, AckEntry, AckKeyHash> pendingAcks_;
    sim::FlatMap<std::uint64_t, FetchEntry> pendingFetches_;
    sim::FlatMap<std::uint64_t, net::Message> fetchReplies_;
    /** Every fan-out record ever made, and the ones free for reuse. */
    std::vector<std::unique_ptr<WriteFanout>> fanouts_;
    std::vector<WriteFanout *> freeFanouts_;
    std::unique_ptr<ec::RsCodec> codec_;
#if SMARTDS_CHECKED_BUILD
    std::map<std::uint64_t, std::vector<bool>> ecLedger_;
#endif
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_SERVER_BASE_H_
