/**
 * @file
 * The request datapath all four designs share.
 *
 * The designs do the same protocol work for every request and differ
 * only in where it is charged (paper Section 3, Figure 1): header parse,
 * compression, verification and decode run on host cores, on an FPGA
 * behind PCIe, on Arm cores beside an off-path engine, or on SmartDS's
 * on-card engines. This class runs one coroutine per request — write,
 * replicated read, EC read — that owns the protocol: read-cache
 * coherence, placement and the replica fan-out with failover, replica
 * probing with timeout backoff and checksum failover, shard gathering and
 * stripe rebuild. It keeps the protocol's state too: the ack and fetch
 * tables, the fan-out records, node health, placement, the read cache and
 * the failover counters. A design supplies the cost hooks below and
 * nothing else of the datapath.
 *
 * CPU-only, Acc and BF2 receive on a front port and serve each request
 * with its own coroutine (dispatch()). SmartDS's Listing-1 workers
 * receive and parse a request into their own buffers, then await the
 * same serveWrite()/serveRead(): its device calls are its hooks, and the
 * worker index stands where the host designs pass the front port.
 *
 * Each hook is a sim::Task, so calling it adds no kernel event: the event
 * stream is the one the design's steps would produce written inline.
 * Hooks record the trace span of the work they charge (host.parse,
 * host.compute, engine, ec.encode, ec.decode); the shared path records
 * the protocol stages (replicate, cache.*, ec.degraded_read).
 */

#ifndef SMARTDS_MIDDLETIER_PER_REQUEST_SERVER_H_
#define SMARTDS_MIDDLETIER_PER_REQUEST_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "ec/reed_solomon.h"
#include "host/core_pool.h"
#include "middletier/chunk_manager.h"
#include "middletier/hot_block_cache.h"
#include "middletier/node_health.h"
#include "middletier/placement.h"
#include "middletier/server_base.h"
#include "net/fabric.h"
#include "sim/flat_map.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::middletier {

/**
 * Split one (compressed) block payload into @p codec's k + m shard
 * payloads. Functional payloads are RS-encoded byte-for-byte, each shard
 * carrying an xxhash32 checksum of its bytes; timing-only payloads get
 * the shard geometry and sizes without data.
 */
std::vector<net::Payload> encodeShards(const ec::RsCodec &codec,
                                       const net::Payload &block);

/** A middle tier that serves each request with one shared coroutine. */
class PerRequestServer : public MiddleTierServer
{
  public:
    /** Write requests fully served (replicated + acknowledged). */
    std::uint64_t requestsCompleted() const { return requestsCompleted_; }

    FailoverStats failoverStats() const override { return failover_; }

    HotBlockCache::Stats
    readCacheStats() const override
    {
        return readCache_ ? readCache_->stats() : HotBlockCache::Stats{};
    }

    void
    setMaintenanceService(MaintenanceService *m) override
    {
        maintenance_ = m;
    }

  protected:
    PerRequestServer(net::Fabric &fabric, ServerConfig config);

    /** A write's block on its way from the compressor to the fan-out. */
    struct WriteJob
    {
        const net::Message &req;
        /** Who serves the write: the front port, or SmartDS's worker. */
        unsigned owner = 0;
        /** Compressed size (and bytes, for functional payloads). */
        Bytes compressed = 0;
        std::shared_ptr<const std::vector<std::uint8_t>> compressedData;
        /** RS shards of the compressed block (EC policy, host memory). */
        std::vector<net::Payload> shards;

        /** The compressed block as one payload: a replica or a stripe. */
        net::Payload block() const;
    };

    /**
     * One write's fan-out, shared by the coroutine serving the write and
     * its replica tasks: the write's identity and per-slot size, the
     * placement, the quorum and all-replicas latches and, for the designs
     * that send from host memory, the message each slot sends. The
     * replica hooks read the write from here. Records are recycled:
     * openFanout() takes one from the free list, and it goes back when
     * its last holder lets go. The serving coroutine and every replica
     * task hold it, so it outlives the write when the VM is acknowledged
     * before the stragglers ack.
     */
    struct WriteFanout
    {
        std::uint64_t tag = 0;
        /**
         * The written block, for read-cache coherence: abandoning a
         * replica schedules a repair whose reconstruction rewrites the
         * block, so the cached copy is dropped at the same point.
         */
        std::uint64_t vmId = 0;
        std::uint64_t blockOffset = 0;
        /** Bytes each slot sends: the compressed block, or one shard. */
        Bytes blockBytes = 0;
        /**
         * Whether each slot carries one RS shard (slot = shard index)
         * rather than a whole-block replica. Abandoned shards are handed
         * to maintenance as k-fan-in reconstructions.
         */
        bool ec = false;
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
     * One replica (or RS shard) of one write, driven by
     * replicateWithFailover() and handed to the sendReplica() and
     * repairSend() hooks.
     */
    struct ReplicaTask
    {
        WriteFanout *fanout = nullptr;
        // simlint: allow(event-handle-misuse): replica/RS-shard index
        // within the placement, not a recycled event pool slot
        unsigned slot = 0;
    };

    /** One probe of one storage node for a read's block or shard. */
    struct Probe
    {
        net::NodeId target = 0;
        /** Attempt index within the read (the toStorage() lane). */
        unsigned attempt = 0;
        Tick timeout = 0;
        /** EC reads: the shard asked for, and the stripe-size hint. */
        unsigned shard = 0;
        Bytes stripeHint = 0;
        enum class Outcome : std::uint8_t
        {
            /** Nothing came before the timeout. */
            Missed,
            /** A fetch reply to another request came instead. */
            Stale,
            Replied,
        };
        Outcome outcome = Outcome::Missed;
        /** The reply, when it came. */
        net::Message reply;
    };

    /** What a read's fetch phase hands to the reply. */
    struct ReadResult
    {
        /** Verified plaintext in hand (worth caching). */
        bool have = false;
        /** Stored bytes the decompressor reads. */
        Bytes in = 0;
        /** The block as the reply carries it (empty when unserved). */
        HotBlockCache::Entry block;
    };

    /** The shards an EC read gathered, in arrival order. */
    struct Stripe
    {
        /** Shard index of each reply (distinct, below k + m). */
        std::vector<unsigned> index;
        std::vector<net::Message> replies;
        /** Size of the compressed stripe. */
        Bytes bytes = 0;
        /** Whether every gathered shard is a data shard. */
        bool systematic = false;
    };

    /** Serve one message that arrived on front-end port @p port. */
    void dispatch(unsigned port, net::Message &&msg);

    /** Serve write @p msg for @p owner (its front port or worker). */
    sim::Task serveWrite(unsigned owner, const net::Message &msg);
    /** Serve read @p msg for @p owner. */
    sim::Task serveRead(unsigned owner, const net::Message &msg);

    // --- Cost hooks: where each step of the datapath is charged ---------

    /** Parse @p req's header. */
    virtual sim::Task parse(const net::Message &req) = 0;

    /** Compress @p w's block: set w.compressed (and its bytes). */
    virtual sim::Task compress(WriteJob &w) = 0;

    /** RS-encode @p w's block (host designs: into w.shards). */
    virtual sim::Task ecEncode(WriteJob &w) = 0;

    /**
     * Observe the end of @p req's compute phase before its replicas are
     * posted (default: nothing to observe, the cores did the work).
     */
    virtual sim::Task computeDone(const net::Message &req);

    /**
     * Make @p w's replicas (or shards) sendable by sendReplica() and
     * repairSend() once @p f is placed. Default: park slot r's message in
     * f.messages.
     */
    virtual void stageReplicas(WriteJob &w, WriteFanout &f);

    /**
     * Fetch @p msg's block (or shard @p p.shard) from @p p.target, giving
     * up after @p p.timeout: set p.outcome, and p.reply when it came.
     * Default: a ReadFetch through toStorage() and the shared fetch
     * table.
     */
    virtual sim::Task probe(unsigned owner, const net::Message &msg,
                            Probe &p);

    /**
     * Verify the replica @p p fetched; when it is intact, fill @p out.
     * Default: checksum and decompress in software, at no simulated cost
     * (decompress() charges the decode).
     */
    virtual sim::Task verifyReplica(unsigned owner, const net::Message &msg,
                                    Probe &p, ReadResult &out);

    /**
     * Check the shard @p p fetched against its checksum. Default: the
     * xxhash in software, at no simulated cost.
     */
    virtual sim::Task verifyShard(unsigned owner, const net::Message &msg,
                                  const Probe &p, bool &corrupt);

    /**
     * Rebuild @p s into @p msg's block; when it verifies, fill @p out.
     * Default: rsDecode() a non-systematic stripe, then reassemble,
     * decompress and verify in software.
     */
    virtual sim::Task rebuildStripe(unsigned owner, const net::Message &msg,
                                    const Stripe &s, ReadResult &out);

    /** Decompress @p in stored bytes into @p out plain bytes. */
    virtual sim::Task decompress(const net::Message &req, Bytes in,
                                 Bytes out) = 0;

    /**
     * Serve @p req from the read-cache entry @p block (before its reply is
     * sent).
     */
    virtual sim::Task cacheHit(unsigned owner, const net::Message &req,
                               const HotBlockCache::Entry &block) = 0;

    /** Send @p reply to the client @p owner serves. */
    virtual sim::Task toClient(unsigned owner, net::Message reply) = 0;

    /**
     * Rebuild a @p stripe-byte stripe from @p in bytes of shards (used by
     * the default rebuildStripe()).
     */
    virtual sim::Task rsDecode(const net::Message &req, Bytes in,
                               Bytes stripe);

    /**
     * Send a replica or a fetch toward storage for a request that arrived
     * on @p port (used by the default probe(), sendReplica() and
     * repairSend()). @p lane is the replica slot or the probe attempt;
     * @p first marks a replica's first send.
     */
    virtual void toStorage(unsigned port, unsigned lane, net::Message &&msg,
                           bool first);

    /**
     * Send @p task's replica to @p dst (first attempt, retry or
     * re-placement). @p first marks the write's very first send of slot
     * 0. Default: toStorage() of the slot's parked message.
     */
    virtual void sendReplica(const ReplicaTask &task, net::NodeId dst,
                             bool first);

    /**
     * A self-contained deferred resend of @p task to @p dst for the
     * maintenance repair queue. Called at abandon time, while the write
     * still holds its buffers; the callback runs after the write retired,
     * so it must snapshot what it sends. Default: a copy of the slot's
     * parked message, sent through toStorage().
     */
    virtual sim::EventCallback repairSend(const ReplicaTask &task,
                                          net::NodeId dst);

    // --- Helpers for the hooks ------------------------------------------

    /**
     * Set w.compressed: the real LZ4 codec (codec-cache assisted) when
     * the request carries bytes, the corpus ratio otherwise.
     */
    void compressBlock(WriteJob &w) const;

    /** The compressed size the corpus ratio gives @p p (at least 1). */
    static Bytes ratioBytes(const net::Payload &p);

    /** Parse @p req's header on @p pool for @p cost. */
    sim::Task parseOn(host::CorePool &pool, Tick cost,
                      const net::Message &req);

    /** Record a @p stage span of @p req from @p start to now. */
    void traceSpan(const net::Message &req, trace::Stage stage, Tick start,
                   std::uint32_t depth = 0) const;

    /**
     * The RS shards of @p block under the server's geometry
     * (middletier::encodeShards()), counted as stripe @p tag
     * (openStripe()).
     */
    std::vector<net::Payload> encodeShards(std::uint64_t tag,
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

    /** Route an arriving ack into the table (stale acks are counted). */
    void deliverAck(std::uint64_t tag, net::NodeId node);

    sim::Simulator &sim_;
    net::Fabric &fabric_;
    ServerConfig config_;
    Rng rng_;

  private:
    /** A host design's request, owned while its coroutine runs. */
    sim::Process serveRequest(unsigned port, net::Message msg);
    /** Probe replicas until one verifies. */
    sim::Task fetchReplica(unsigned owner, const net::Message &msg,
                           ReadResult &out);
    /** Gather any k shards of the stripe and rebuild it. */
    sim::Task fetchStripe(unsigned owner, const net::Message &msg,
                          ReadResult &out);
    /** The reply of @p kind to @p req. */
    static net::Message replyTo(const net::Message &req,
                                net::MessageKind kind);
    /** The ReadReply to @p req carrying @p block. */
    static net::Message readReply(const net::Message &req,
                                  const HotBlockCache::Entry &block);

    // --- The protocol's bookkeeping --------------------------------------

    /**
     * A recycled fan-out record for the write @p w: placed by
     * placeWrite(), its latches set under the quorum rule, and held once
     * by the caller and once per slot (the replica tasks the caller
     * spawns).
     */
    WriteFanout &openFanout(const WriteJob &w);

    /** Drop one hold on @p f; the last one recycles it. */
    void releaseFanout(WriteFanout &f);

    /**
     * Placement for the write @p msg, into @p f: per-chunk sticky
     * placement through the chunk manager when configured (also recording
     * the write for compaction bookkeeping), one placement draw per
     * request otherwise (EC stripes always). Either way suspected nodes
     * are skipped while enough healthy ones remain.
     */
    void placeWrite(const net::Message &msg, WriteFanout &f);

    /**
     * Acks this write needs before replying to the VM. Under erasure
     * coding the quorum never drops below k: fewer than k durable shards
     * cannot reconstruct the stripe, so an ackQuorum of 2 on RS(4, 2)
     * still waits for 4.
     */
    unsigned writeQuorum(std::size_t replicas) const;

    /**
     * Drive one replica to durability: send, await the ack with an
     * exponentially backed-off timeout, re-place onto a healthy node on
     * repeat failure, and after maxRetries hand the replica to the
     * maintenance repair queue. Arrives at the task's quorum/all latches
     * exactly once, whether the replica succeeded or was abandoned.
     */
    sim::Process replicateWithFailover(ReplicaTask task);

    /**
     * Move @p task's slot off @p bad, the node it keeps failing on: one
     * placement draw outside the write's current placement, which counts
     * against its racks' shares. The chunk's replica set follows.
     * @return the new node, or @p bad when the pool has no other.
     */
    net::NodeId moveReplica(const ReplicaTask &task, net::NodeId bad);

    /**
     * Register interest in a WriteReplicaAck for (@p tag, @p node). The
     * returned completion fires with 1 on the ack and 0 on timeout; the
     * timeout path needs no watcher coroutine, so an ack that never
     * arrives leaks nothing.
     */
    sim::Completion expectAck(std::uint64_t tag, net::NodeId node,
                              Tick timeout);

    /**
     * Replica candidates for a replicated read of the block @p msg
     * addresses: the chunk's replica set when a chunk manager is
     * configured (reads must hit nodes that hold the data), the whole
     * pool otherwise. The chunk's set is copied into @p set, which is
     * inline, because a re-placement may change it while the read waits;
     * the result views @p set or config_.storageNodes.
     */
    std::span<const net::NodeId> readCandidates(const net::Message &msg,
                                                ReplicaSet &set);

    /**
     * Register interest in a ReadFetchReply for @p tag. The returned
     * completion fires with 1 on delivery and 0 on timeout. The timer
     * handle is held per-entry and cancelled on delivery, so a timer
     * armed for an earlier probe of the same tag can never fire into a
     * later probe's wait. The default probe() waits through this table;
     * SmartDS's probe resets its fetch queue pair instead.
     */
    sim::Completion expectFetch(std::uint64_t tag, Tick timeout);

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

    /**
     * Drop a block from the read cache (write / failover / reconstruction
     * coherence point). Returns whether an entry was actually dropped.
     */
    bool
    cacheInvalidate(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        return readCache_ && readCache_->invalidate(vm_id, block_offset);
    }

    /**
     * Drop @p req's block from the read cache, recording a
     * CacheInvalidate span when an entry was dropped.
     */
    void invalidateCached(const net::Message &req);

    /**
     * A read probe of @p target went unanswered — or, when @p stale, was
     * answered for an earlier wait: count the failover and, for a silent
     * node, strike its health.
     */
    void
    noteFetchMiss(net::NodeId target, bool stale)
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
    noteCorruptStripe(const net::Message &req)
    {
        ++failover_.corruptionsDetected;
        ++failover_.readsUnserved;
        invalidateCached(req);
    }

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
    /** One awaited ack or fetch reply; the timer is cancelled on arrival. */
    struct PendingEntry
    {
        sim::Completion completion;
        sim::EventHandle timer;
    };

    FailoverStats failover_;
    NodeHealthView health_;
    /** The storage pool and its racks. */
    Placement placement_;
    MaintenanceService *maintenance_ = nullptr;
    /** The RS codec of config_'s geometry (null unless EC). */
    std::unique_ptr<const ec::RsCodec> codec_;
    /** Hot-block read cache (null when disabled). */
    std::unique_ptr<HotBlockCache> readCache_;
    std::uint64_t requestsCompleted_ = 0;
    sim::FlatMap<AckKey, PendingEntry, AckKeyHash> pendingAcks_;
    sim::FlatMap<std::uint64_t, PendingEntry> pendingFetches_;
    sim::FlatMap<std::uint64_t, net::Message> fetchReplies_;
    /** Every fan-out record ever made, and the ones free for reuse. */
    std::vector<std::unique_ptr<WriteFanout>> fanouts_;
    std::vector<WriteFanout *> freeFanouts_;
#if SMARTDS_CHECKED_BUILD
    std::map<std::uint64_t, std::vector<bool>> ecLedger_;
#endif
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_PER_REQUEST_SERVER_H_
