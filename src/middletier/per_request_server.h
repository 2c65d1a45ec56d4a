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
 * stripe rebuild. A design supplies the cost hooks below and nothing else
 * of the datapath.
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

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "host/core_pool.h"
#include "middletier/server_base.h"
#include "net/fabric.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::middletier {

/** A middle tier that serves each request with one shared coroutine. */
class PerRequestServer : public MiddleTierServer
{
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

    /** Replica sends go through toStorage() from the parked messages. */
    void sendReplica(const ReplicaTask &task, net::NodeId dst,
                     bool first) override;
    sim::EventCallback repairSend(const ReplicaTask &task,
                                  net::NodeId dst) override;

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
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_PER_REQUEST_SERVER_H_
