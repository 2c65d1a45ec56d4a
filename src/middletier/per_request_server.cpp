#include "middletier/per_request_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "middletier/protocol.h"

namespace smartds::middletier {

PerRequestServer::PerRequestServer(net::Fabric &fabric, ServerConfig config)
    : sim_(fabric.simulator()), fabric_(fabric), config_(std::move(config)),
      rng_(config_.seed)
{
    initFailover(config_);
}

net::Payload
PerRequestServer::WriteJob::block() const
{
    net::Payload p;
    p.size = compressed;
    p.data = compressedData;
    p.compressed = true;
    p.originalSize = req.payload.size;
    p.compressibility = req.payload.compressibility;
    p.blockId = req.payload.blockId;
    return p;
}

void
PerRequestServer::dispatch(unsigned port, net::Message msg)
{
    switch (msg.kind) {
      case net::MessageKind::WriteRequest:
        sim::spawn(sim_, serveWrite(port, std::move(msg)));
        break;
      case net::MessageKind::WriteReplicaAck:
        deliverAck(msg.tag, msg.src);
        break;
      case net::MessageKind::ReadRequest:
        sim::spawn(sim_, serveRead(port, std::move(msg)));
        break;
      case net::MessageKind::ReadFetchReply:
        deliverFetch(std::move(msg));
        break;
      default:
        panic("%s server: unexpected message kind %u", designName(design()),
              static_cast<unsigned>(msg.kind));
    }
}

sim::Task
PerRequestServer::computeDone(const net::Message &)
{
    co_return;
}

void
PerRequestServer::compressBlock(WriteJob &w) const
{
    const net::Payload &in = w.req.payload;
    if (!in.data) {
        w.compressed = ratioBytes(in);
        return;
    }
    // Corpus-backed payloads resolve to the precomputed compressed buffer
    // (hash-guarded: mutated bytes fall through to the codec).
    const corpus::BlockCodecCache::Entry *cached =
        config_.blockCache
            ? config_.blockCache->lookupPlain(in.blockId, in.data->data(),
                                              in.data->size())
            : nullptr;
    if (cached) {
        w.compressed = cached->compressed->size();
        w.compressedData = cached->compressed;
        return;
    }
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(in.size));
    const auto n = lz4::compress(in.data->data(), in.data->size(),
                                 out.data(), out.size(), config_.effort);
    SMARTDS_CHECK(n.has_value(), "compression failed");
    out.resize(*n);
    w.compressed = *n;
    w.compressedData =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(out));
}

Bytes
PerRequestServer::ratioBytes(const net::Payload &p)
{
    return std::max<Bytes>(
        static_cast<Bytes>(static_cast<double>(p.size) * p.compressibility),
        1);
}

sim::Task
PerRequestServer::parseOn(host::CorePool &pool, Tick cost,
                          const net::Message &req)
{
    const auto depth = static_cast<std::uint32_t>(pool.queueDepth());
    const Tick start = sim_.now();
    co_await pool.executeAsync(cost);
    traceSpan(req, trace::Stage::HostParse, start, depth);
}

void
PerRequestServer::traceSpan(const net::Message &req, trace::Stage stage,
                            Tick start, std::uint32_t depth) const
{
    if (trace::Tracer *tracer = fabric_.tracer())
        tracer->record(req.trace, stage, start, sim_.now(), depth);
}

net::Message
PerRequestServer::fetchFrom(const net::Message &msg, net::NodeId target)
{
    net::Message fetch;
    fetch.dst = target;
    fetch.kind = net::MessageKind::ReadFetch;
    fetch.headerBytes = StorageHeader::wireSize;
    fetch.tag = msg.tag;
    fetch.issueTick = msg.issueTick;
    fetch.payload.compressibility = msg.payload.compressibility;
    fetch.payload.originalSize = msg.payload.originalSize;
    fetch.trace = msg.trace;
    return fetch;
}

net::Message
PerRequestServer::replyTo(const net::Message &req, net::MessageKind kind)
{
    net::Message reply;
    reply.dst = req.src;
    reply.dstQp = req.srcQp;
    reply.kind = kind;
    reply.headerBytes = StorageHeader::wireSize;
    reply.tag = req.tag;
    reply.issueTick = req.issueTick;
    reply.trace = req.trace;
    return reply;
}

net::Message
PerRequestServer::readReply(const net::Message &req,
                            const HotBlockCache::Entry &block)
{
    net::Message reply = replyTo(req, net::MessageKind::ReadReply);
    reply.payload.size = block.plainSize;
    reply.payload.data = block.plain;
    reply.payload.compressibility = block.compressibility;
    return reply;
}

sim::Process
PerRequestServer::serveWrite(unsigned port, net::Message msg)
{
    // Write-through coherence: the cached copy goes stale the moment the
    // write is accepted, before any concurrent read can hit it.
    invalidateCached(msg, fabric_.tracer(), sim_.now());

    WriteJob w{msg, 0, nullptr, {}};
    co_await parse(msg);
    co_await compress(w);
    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    if (ec)
        co_await ecEncode(w);
    co_await computeDone(msg);

    // --- Replicate to the chosen storage servers ------------------------
    // Each replica (or RS shard) runs its own failover loop (timeout,
    // retry, re-placement); the VM is acknowledged once the quorum is
    // durable. The replica messages are parked in the fan-out record,
    // which the stragglers keep alive after this coroutine returns.
    WriteFanout &f = openFanout(sim_, config_, msg, rng_, port);
    const unsigned fanout = static_cast<unsigned>(f.nodes.size());
    const Tick replicate_start = sim_.now();
    f.messages.resize(fanout);
    for (unsigned r = 0; r < fanout; ++r) {
        // Under EC, slot r carries shard r of the stripe; under
        // replication it carries a whole-block copy.
        net::Message &replica = f.messages[r];
        replica.kind = net::MessageKind::WriteReplica;
        replica.headerBytes = StorageHeader::wireSize;
        replica.tag = msg.tag;
        replica.issueTick = msg.issueTick;
        replica.trace = msg.trace;
        replica.payload = ec ? w.shards[r] : w.block();
        replica.headerData = msg.headerData;
        ReplicaTask task;
        task.tag = msg.tag;
        task.blockBytes = replica.payload.size;
        task.target = f.nodes[r];
        task.slot = r;
        task.fanout = &f;
        task.ec = ec;
        task.vmId = msg.vmId;
        task.blockOffset = msg.blockOffset;
        sim::spawn(sim_, replicateWithFailover(sim_, rng_, config_, task));
    }
    co_await f.quorum->wait();
    traceSpan(msg, trace::Stage::Replicate, replicate_start, fanout);
    if (!f.all->wait().done())
        ++failover_.quorumCompletions;
    releaseFanout(f);

    co_await toClient(port, replyTo(msg, net::MessageKind::WriteReply));
    noteCompleted(msg.payload.size);
}

void
PerRequestServer::sendReplica(const ReplicaTask &task, net::NodeId dst,
                              bool first)
{
    net::Message out = task.fanout->messages[task.slot];
    out.dst = dst;
    toStorage(task.fanout->owner, task.slot, std::move(out), first);
}

sim::EventCallback
PerRequestServer::repairSend(const ReplicaTask &task, net::NodeId dst)
{
    // The record is recycled once this replica retires, so the repair
    // keeps its own copy of the message. A repair resends as slot r's
    // first send would.
    auto out =
        std::make_shared<net::Message>(task.fanout->messages[task.slot]);
    out->dst = dst;
    return [this, port = task.fanout->owner, slot = task.slot, out]() {
        toStorage(port, slot, std::move(*out), slot == 0);
    };
}

sim::Process
PerRequestServer::serveRead(unsigned port, net::Message msg)
{
    co_await parse(msg);

    // Hot-block cache: a hit serves the verified plaintext without a
    // storage fetch or decompression.
    ReadResult r;
    if (readCache_) {
        if (const HotBlockCache::Entry *hit =
                readCache_->lookup(msg.vmId, msg.blockOffset)) {
            // Snapshot the entry: the lookup pointer dies if another
            // request inserts or invalidates while we are suspended.
            r.block = *hit;
            const Tick hit_start = sim_.now();
            co_await cacheHit(msg);
            co_await toClient(port, readReply(msg, r.block));
            traceSpan(msg, trace::Stage::CacheHit, hit_start);
            co_return;
        }
        traceSpan(msg, trace::Stage::CacheMiss, sim_.now());
    }

    if (config_.policy == ReplicationPolicy::ErasureCode)
        co_await fetchStripe(port, msg, r);
    else
        co_await fetchReplica(port, msg, r);
    co_await decompress(msg, r.in, r.block.plainSize);

    // Keep the verified plaintext for future hits on this block.
    if (r.have && readCache_)
        readCache_->insert(msg.vmId, msg.blockOffset, r.block);
    co_await toClient(port, readReply(msg, r.block));
}

sim::Task
PerRequestServer::fetchReplica(unsigned port, const net::Message &msg,
                               ReadResult &out)
{
    // Identify the block and fetch it from a storage server holding it
    // (Fig. 3b). Crashed or slow replicas time out and the fetch fails
    // over; corrupt data is caught by the end-to-end checksum and served
    // from another replica.
    const auto candidates = readCandidates(config_, msg);
    SMARTDS_CHECK(!candidates.empty(), "read with no storage candidates");
    const std::size_t start = rng_.below(candidates.size());

    net::Message stored;
    for (std::size_t a = 0; a < candidates.size() && !out.have; ++a) {
        const net::NodeId target =
            candidates[(start + a) % candidates.size()];
        net::Message fetch = fetchFrom(msg, target);
        fetch.payload.size = msg.payload.size; // compressed size hint
        sim::Completion fetched =
            expectFetch(sim_, msg.tag, config_.failover.ackTimeout);
        toStorage(port, static_cast<unsigned>(a), std::move(fetch), false);
        if (co_await fetched == 0) {
            noteFetchMiss(target);
            continue;
        }
        health_.noteAck(target);

        // End-to-end integrity: decompress, then verify the checksum the
        // VM stamped into the storage header at write time.
        net::Message candidate = takeFetchReply(msg.tag);
        const VerifiedBlock verified = verifyFetchedBlock(config_, candidate);
        if (verified.corrupt) {
            // Checksum failover is a cache coherence point: drop any
            // cached copy of the block rather than trust it outlived
            // whatever corrupted the replica.
            noteCorruptFetch();
            invalidateCached(msg, fabric_.tracer(), sim_.now());
            continue;
        }
        out.block.plain = verified.plain;
        stored = std::move(candidate);
        out.have = true;
    }
    if (!out.have)
        ++failover_.readsUnserved;

    out.in = std::max<Bytes>(out.have ? stored.payload.size
                                      : msg.payload.size,
                             1);
    out.block.plainSize = std::max<Bytes>(
        stored.payload.originalSize
            ? stored.payload.originalSize
            : (msg.payload.originalSize ? msg.payload.originalSize : out.in),
        1);
    out.block.compressibility = stored.payload.compressibility;
}

sim::Task
PerRequestServer::fetchStripe(unsigned port, const net::Message &msg,
                              ReadResult &out)
{
    // EC read: probe the pool for any k healthy shards of the stripe,
    // then reassemble (concat when the k data shards answered, RS decode
    // from parity otherwise). Each shard probe reuses the read-path
    // timeout/health machinery.
    const ec::RsCodec &codec = ecCodec(config_);
    const unsigned k = codec.k();
    const auto candidates = readCandidates(config_, msg);
    SMARTDS_CHECK(candidates.size() >= k,
                  "EC read needs %u storage nodes, have %zu", k,
                  candidates.size());
    const std::size_t ring_start = rng_.below(candidates.size());

    // Shard-size hint for timing-mode storage synthesis: the client's
    // compressed-size hint (or compressibility estimate) split k ways.
    const Bytes stripe_hint = std::max<Bytes>(
        msg.payload.size
            ? msg.payload.size
            : static_cast<Bytes>(
                  static_cast<double>(msg.payload.originalSize) *
                  msg.payload.compressibility),
        1);

    // Collected shards: index + reply (bytes in functional mode).
    std::vector<unsigned> shard_idx;
    std::vector<net::Message> shard_msgs;
    bool degraded = false;
    const Tick collect_start = sim_.now();
    for (std::size_t a = 0;
         a < candidates.size() && shard_idx.size() < k;
         ++a) {
        const net::NodeId target =
            candidates[(ring_start + a) % candidates.size()];
        net::Message fetch = fetchFrom(msg, target);
        fetch.payload.size = ec::RsCodec::shardSize(stripe_hint, k);
        fetch.payload.ecK = static_cast<std::uint8_t>(k);
        fetch.payload.ecM = static_cast<std::uint8_t>(codec.m());
        fetch.payload.ecShard = static_cast<std::uint8_t>(
            std::min<std::size_t>(shard_idx.size(), codec.n() - 1));
        fetch.payload.ecStripeBytes = stripe_hint;
        sim::Completion fetched =
            expectFetch(sim_, msg.tag, config_.failover.ackTimeout);
        toStorage(port, static_cast<unsigned>(a), std::move(fetch), false);
        if (co_await fetched == 0) {
            noteFetchMiss(target);
            degraded = true;
            continue;
        }
        health_.noteAck(target);

        net::Message candidate = takeFetchReply(msg.tag);
        if (candidate.payload.ecK == 0) {
            // Functional mode: this node holds no shard of the stripe
            // (the stub reply) — normal when probing the whole pool.
            degraded = true;
            continue;
        }
        if (candidate.payload.corrupted ||
            (candidate.payload.data &&
             xxhash32(*candidate.payload.data) !=
                 candidate.payload.ecShardChecksum)) {
            noteCorruptFetch();
            degraded = true;
            continue;
        }
        const unsigned idx = candidate.payload.ecShard;
        if (std::find(shard_idx.begin(), shard_idx.end(), idx) !=
            shard_idx.end())
            continue; // duplicate shard index (repaired copy)
        shard_idx.push_back(idx);
        shard_msgs.push_back(std::move(candidate));
    }
    traceSpan(msg, trace::Stage::DegradedRead, collect_start,
              static_cast<std::uint32_t>(shard_idx.size()));

    const bool have = shard_idx.size() >= k;
    if (!have)
        ++failover_.readsUnserved;

    // Reassemble the stripe. The concat fast path (all data shards) is
    // plain memory movement; a parity decode pays the GF(256) math.
    const bool systematic =
        have && std::all_of(shard_idx.begin(), shard_idx.end(),
                            [k](unsigned i) { return i < k; });
    if (have && (degraded || !systematic))
        ++failover_.degradedReads;

    const net::Message *stored = have ? &shard_msgs.front() : nullptr;
    const Bytes stripe_bytes = std::max<Bytes>(
        stored ? stored->payload.ecStripeBytes : stripe_hint, 1);
    if (have && !systematic)
        co_await rsDecode(msg, ec::RsCodec::shardSize(stripe_bytes, k) * k,
                          stripe_bytes);
    bool corrupt = !have;
    if (stored && stored->payload.data) {
        // Functional reassembly, byte for byte; the recovered stripe is
        // decompressed and verified against the write-time checksum.
        const VerifiedBlock recovered =
            decodeEcStripe(config_, shard_idx, shard_msgs, stripe_bytes);
        corrupt = recovered.corrupt;
        out.block.plain = recovered.plain;
        if (corrupt)
            noteCorruptStripe(msg, fabric_.tracer(), sim_.now());
    }

    out.have = !corrupt;
    out.in = stripe_bytes;
    out.block.plainSize = std::max<Bytes>(
        stored && stored->payload.originalSize ? stored->payload.originalSize
                                               : msg.payload.originalSize,
        1);
    out.block.compressibility = stored ? stored->payload.compressibility
                                       : msg.payload.compressibility;
}

} // namespace smartds::middletier
