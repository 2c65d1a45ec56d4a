/**
 * @file
 * The per-request datapath the CPU-only, Acc and BF2 designs share.
 *
 * The three designs do the same protocol work for every request and
 * differ only in where it is charged (paper Section 3, Figure 1): header
 * parse, compression and decompression run on host cores, on an FPGA
 * behind PCIe, or on Arm cores beside an off-path engine. This class runs
 * one coroutine per request — write, replicated read, EC read — that owns
 * the protocol: read-cache coherence, placement and the replica fan-out
 * with failover, replica probing with checksum failover, shard gathering
 * and stripe decode. A design supplies the cost hooks below and nothing
 * else of the datapath.
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

/** A middle tier that serves each request with its own coroutine. */
class PerRequestServer : public MiddleTierServer
{
  protected:
    PerRequestServer(net::Fabric &fabric, ServerConfig config);

    /** A write's block on its way from the compressor to the fan-out. */
    struct WriteJob
    {
        const net::Message &req;
        /** Compressed size (and bytes, for functional payloads). */
        Bytes compressed = 0;
        std::shared_ptr<const std::vector<std::uint8_t>> compressedData;
        /** RS shards of the compressed block (EC policy only). */
        std::vector<net::Payload> shards;

        /** The compressed block as one payload: a replica or a stripe. */
        net::Payload block() const;
    };

    /** Serve one message that arrived on front-end port @p port. */
    void dispatch(unsigned port, net::Message msg);

    // --- Cost hooks: where each step of the datapath is charged ---------

    /** Parse @p req's header. */
    virtual sim::Task parse(const net::Message &req) = 0;

    /** Compress @p w's block: set w.compressed (and its bytes). */
    virtual sim::Task compress(WriteJob &w) = 0;

    /** RS-encode @p w's block into w.shards through encodeShards(). */
    virtual sim::Task ecEncode(WriteJob &w) = 0;

    /**
     * Observe the end of @p req's compute phase before its replicas are
     * posted (default: nothing to observe, the cores did the work).
     */
    virtual sim::Task computeDone(const net::Message &req);

    /** Decompress @p in stored bytes into @p out plain bytes. */
    virtual sim::Task decompress(const net::Message &req, Bytes in,
                                 Bytes out) = 0;

    /** Rebuild a @p stripe-byte stripe from @p in bytes of shards. */
    virtual sim::Task rsDecode(const net::Message &req, Bytes in,
                               Bytes stripe) = 0;

    /** Serve @p req from the read cache (before its reply is sent). */
    virtual sim::Task cacheHit(const net::Message &req) = 0;

    /**
     * Send a replica or a fetch toward storage for a request that arrived
     * on @p port. @p lane is the replica slot or the probe attempt;
     * @p first marks a replica's first send.
     */
    virtual void toStorage(unsigned port, unsigned lane, net::Message msg,
                           bool first) = 0;

    /** Send @p reply to the client whose request arrived on @p port. */
    virtual sim::Task toClient(unsigned port, net::Message reply) = 0;

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
    /** What a read's fetch phase hands to the decompress-and-reply tail. */
    struct ReadResult
    {
        /** Verified plaintext in hand (worth caching). */
        bool have = false;
        /** Stored bytes the decompressor reads. */
        Bytes in = 0;
        /** The block as the reply carries it. */
        HotBlockCache::Entry block;
    };

    sim::Process serveWrite(unsigned port, net::Message msg);
    sim::Process serveRead(unsigned port, net::Message msg);
    /** Probe replicas until one verifies. */
    sim::Task fetchReplica(unsigned port, const net::Message &msg,
                           ReadResult &out);
    /** Gather any k shards of the stripe and reassemble it. */
    sim::Task fetchStripe(unsigned port, const net::Message &msg,
                          ReadResult &out);
    /** A ReadFetch of @p msg's block from @p target. */
    static net::Message fetchFrom(const net::Message &msg,
                                  net::NodeId target);
    /** The reply of @p kind to @p req. */
    static net::Message replyTo(const net::Message &req,
                                net::MessageKind kind);
    /** The ReadReply to @p req carrying @p block. */
    static net::Message readReply(const net::Message &req,
                                  const HotBlockCache::Entry &block);
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_PER_REQUEST_SERVER_H_
