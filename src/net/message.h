/**
 * @file
 * Network message representation.
 *
 * Messages are RDMA-message-granularity units (the granularity at which
 * SmartDS performs its split, per Section 4.1 and the related-work
 * contrast). A message carries a block-storage header and a payload; the
 * payload optionally references functional bytes (for end-to-end data
 * verification paths) and always carries the compression metadata the
 * timing model needs.
 */

#ifndef SMARTDS_NET_MESSAGE_H_
#define SMARTDS_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "trace/context.h"

namespace smartds::net {

/** Identifies a port on the fabric. */
using NodeId = std::uint32_t;

/** Identifies a queue pair within a node. */
using QpId = std::uint32_t;

/** Application-level message kinds of the disaggregated-storage protocol. */
enum class MessageKind : std::uint8_t
{
    WriteRequest,  ///< VM -> middle tier: block to persist
    WriteReplica,  ///< middle tier -> storage server: (compressed) block
    WriteReplicaAck, ///< storage server -> middle tier
    WriteReply,    ///< middle tier -> VM: success
    ReadRequest,   ///< VM -> middle tier: block wanted
    ReadFetch,     ///< middle tier -> storage server
    ReadFetchReply, ///< storage server -> middle tier: compressed block
    ReadReply,     ///< middle tier -> VM: decompressed block
    Raw,           ///< transport-level traffic (microbenchmarks)
};

/** Message payload: size plus optional functional bytes and metadata. */
struct Payload
{
    /** Payload length on the wire, bytes. */
    Bytes size = 0;

    /**
     * Functional bytes (corpus block or compressed buffer) when the path
     * verifies data end-to-end; null on the pure timing paths.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> data;

    /**
     * Compressed/original ratio the block would compress to (drawn from
     * the corpus RatioSampler); 1.0 for incompressible.
     */
    double compressibility = 1.0;

    /** Whether this payload has already been compressed. */
    bool compressed = false;

    /** Original (uncompressed) size when compressed is true. */
    Bytes originalSize = 0;

    /**
     * Set by the fault layer when the stored copy of this payload took a
     * bit flip. Timing-mode stand-in for a checksum mismatch: functional
     * paths detect corruption from the bytes themselves, timing paths
     * from this flag.
     */
    bool corrupted = false;

    /**
     * Corpus block key for the codec cache: 1-based block-aligned index
     * into the workload corpus, 0 when the payload is not corpus-backed
     * (trace-replay bytes, synthetic buffers). Purely an optimisation
     * hint — every cache lookup re-verifies the bytes against the cached
     * checksum (BlockCodecCache's corruption guard), so a stale or wrong
     * id costs a miss, never wrong data.
     */
    std::uint32_t blockId = 0;

    /**
     * Erasure-coding geometry when this payload is one RS(k, m) shard
     * of a stripe: ecK == 0 means "not erasure-coded" (whole-block
     * replication). Shards of one stripe share the message tag and are
     * told apart by ecShard (0..k-1 data, k..k+m-1 parity). The wire
     * size of a shard payload is the shard size; ecStripeBytes is the
     * (compressed) stripe length before padding so a reader can strip
     * the zero pad after decode.
     */
    std::uint8_t ecK = 0;
    std::uint8_t ecM = 0;
    std::uint8_t ecShard = 0;
    std::uint32_t ecShardChecksum = 0;
    Bytes ecStripeBytes = 0;
};

/** A message in flight on the fabric. */
struct Message
{
    NodeId src = 0;
    NodeId dst = 0;
    QpId srcQp = 0;
    QpId dstQp = 0;
    MessageKind kind = MessageKind::Raw;

    /** Block-storage header bytes (precede the payload on the wire). */
    Bytes headerBytes = 0;

    /**
     * Functional header content (encoded storage protocol header) on
     * data-verification paths; null on pure timing paths.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> headerData;

    Payload payload;

    /** Request identity threaded through the whole I/O. */
    std::uint64_t tag = 0;

    /**
     * Latency-sensitive service flag from the storage header (Listing 1:
     * such blocks skip compression). Mirrored out-of-band so timing-only
     * paths need not parse header bytes.
     */
    bool latencySensitive = false;

    /** Issuing VM id (storage-header field, mirrored out-of-band). */
    std::uint64_t vmId = 0;

    /** Virtual-disk byte offset of the block (storage-header field). */
    std::uint64_t blockOffset = 0;

    /** Issue time of the originating request (for latency accounting). */
    std::uint64_t issueTick = 0;

    /** Trace context of the originating request (id 0 = untraced). */
    trace::TraceContext trace;

    /** Total application bytes on the wire (header + payload). */
    Bytes wireBytes() const { return headerBytes + payload.size; }
};

} // namespace smartds::net

#endif // SMARTDS_NET_MESSAGE_H_
