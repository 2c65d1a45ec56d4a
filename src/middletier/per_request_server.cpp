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

namespace {

/** The block checksum @p reply's storage header carries (0: none). */
std::uint32_t
stampedChecksum(const net::Message &reply)
{
    if (!reply.headerData ||
        reply.headerData->size() < StorageHeader::wireSize)
        return 0;
    return StorageHeader::decode(reply.headerData->data()).blockChecksum;
}

} // namespace

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
PerRequestServer::dispatch(unsigned port, net::Message &&msg)
{
    switch (msg.kind) {
      case net::MessageKind::WriteRequest:
      case net::MessageKind::ReadRequest:
        sim::spawn(sim_, serveRequest(port, std::move(msg)));
        break;
      case net::MessageKind::WriteReplicaAck:
        deliverAck(msg.tag, msg.src);
        break;
      case net::MessageKind::ReadFetchReply:
        deliverFetch(std::move(msg));
        break;
      default:
        panic("%s server: unexpected message kind %u", designName(design()),
              static_cast<unsigned>(msg.kind));
    }
}

sim::Process
PerRequestServer::serveRequest(unsigned port, net::Message msg)
{
    if (msg.kind == net::MessageKind::WriteRequest)
        co_await serveWrite(port, msg);
    else
        co_await serveRead(port, msg);
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

sim::Task
PerRequestServer::serveWrite(unsigned owner, const net::Message &msg)
{
    // Write-through coherence: the cached copy goes stale the moment the
    // write is accepted, before any concurrent read can hit it.
    invalidateCached(msg, fabric_.tracer(), sim_.now());

    WriteJob w{msg, owner, 0, nullptr, {}};
    co_await parse(msg);
    co_await compress(w);
    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    if (ec)
        co_await ecEncode(w);
    co_await computeDone(msg);

    // --- Replicate to the chosen storage servers ------------------------
    // Each replica (or RS shard) runs its own failover loop (timeout,
    // retry, re-placement); the VM is acknowledged once the quorum is
    // durable. The fan-out record, which the stragglers keep alive after
    // this coroutine returns, tells the design's replica hooks what to
    // send: slot r carries shard r under EC, a whole-block copy
    // otherwise.
    WriteFanout &f = openFanout(sim_, config_, msg, rng_, owner);
    const unsigned fanout = static_cast<unsigned>(f.nodes.size());
    const Bytes block_bytes =
        ec ? ec::RsCodec::shardSize(w.compressed, config_.ec.dataShards)
           : w.compressed;
    const Tick replicate_start = sim_.now();
    stageReplicas(w, f);
    for (unsigned r = 0; r < fanout; ++r) {
        ReplicaTask task;
        task.tag = msg.tag;
        task.blockBytes = block_bytes;
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

    co_await toClient(owner, replyTo(msg, net::MessageKind::WriteReply));
    noteCompleted();
}

void
PerRequestServer::stageReplicas(WriteJob &w, WriteFanout &f)
{
    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    f.messages.resize(f.nodes.size());
    for (std::size_t r = 0; r < f.messages.size(); ++r) {
        net::Message &replica = f.messages[r];
        replica.kind = net::MessageKind::WriteReplica;
        replica.headerBytes = StorageHeader::wireSize;
        replica.tag = w.req.tag;
        replica.issueTick = w.req.issueTick;
        replica.trace = w.req.trace;
        replica.payload = ec ? w.shards[r] : w.block();
        replica.headerData = w.req.headerData;
    }
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

void
PerRequestServer::toStorage(unsigned, unsigned, net::Message &&, bool)
{
    panic("%s server has no host transport to storage",
          designName(design()));
}

sim::Task
PerRequestServer::serveRead(unsigned owner, const net::Message &msg)
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
            co_await cacheHit(owner, msg, r.block);
            co_await toClient(owner, readReply(msg, r.block));
            traceSpan(msg, trace::Stage::CacheHit, hit_start);
            co_return;
        }
        traceSpan(msg, trace::Stage::CacheMiss, sim_.now());
    }

    if (config_.policy == ReplicationPolicy::ErasureCode)
        co_await fetchStripe(owner, msg, r);
    else
        co_await fetchReplica(owner, msg, r);
    // An unserved read decompresses nothing and replies without a
    // payload; a served one keeps its plaintext for future hits.
    if (r.have) {
        co_await decompress(msg, r.in, r.block.plainSize);
        if (readCache_)
            readCache_->insert(msg.vmId, msg.blockOffset, r.block);
    }
    co_await toClient(owner, readReply(msg, r.block));
}

sim::Task
PerRequestServer::fetchReplica(unsigned owner, const net::Message &msg,
                               ReadResult &out)
{
    // Identify the block and fetch it from a storage server holding it
    // (Fig. 3b). Crashed or slow replicas time out and the fetch fails
    // over; corrupt data is caught by the end-to-end checksum and served
    // from another replica.
    ReplicaSet chunk_set;
    const auto candidates = readCandidates(config_, msg, chunk_set);
    SMARTDS_CHECK(!candidates.empty(), "read with no storage candidates");
    const std::size_t start = rng_.below(candidates.size());

    // Each miss doubles the next probe's timeout, up to the cap.
    Tick timeout = config_.failover.ackTimeout;
    for (std::size_t a = 0; a < candidates.size() && !out.have; ++a) {
        Probe p;
        p.target = candidates[(start + a) % candidates.size()];
        p.attempt = static_cast<unsigned>(a);
        p.timeout = timeout;
        co_await probe(owner, msg, p);
        if (p.outcome != Probe::Outcome::Replied) {
            noteFetchMiss(p.target, p.outcome == Probe::Outcome::Stale);
            timeout = std::min(timeout * 2, config_.failover.ackTimeoutCap);
            continue;
        }
        health_.noteAck(p.target);

        // End-to-end integrity: decompress, then verify the checksum the
        // VM stamped into the storage header at write time.
        co_await verifyReplica(owner, msg, p, out);
        if (!out.have) {
            // Checksum failover is a cache coherence point: drop any
            // cached copy of the block rather than trust it outlived
            // whatever corrupted the replica.
            noteCorruptFetch();
            invalidateCached(msg, fabric_.tracer(), sim_.now());
        }
    }
    if (!out.have)
        ++failover_.readsUnserved;
}

sim::Task
PerRequestServer::probe(unsigned owner, const net::Message &msg, Probe &p)
{
    net::Message fetch;
    fetch.dst = p.target;
    fetch.kind = net::MessageKind::ReadFetch;
    fetch.headerBytes = StorageHeader::wireSize;
    fetch.tag = msg.tag;
    fetch.issueTick = msg.issueTick;
    fetch.payload.compressibility = msg.payload.compressibility;
    fetch.payload.originalSize = msg.payload.originalSize;
    fetch.trace = msg.trace;
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const ec::RsCodec &codec = ecCodec(config_);
        fetch.payload.size = ec::RsCodec::shardSize(p.stripeHint, codec.k());
        fetch.payload.ecK = static_cast<std::uint8_t>(codec.k());
        fetch.payload.ecM = static_cast<std::uint8_t>(codec.m());
        fetch.payload.ecShard = static_cast<std::uint8_t>(p.shard);
        fetch.payload.ecStripeBytes = p.stripeHint;
    } else {
        fetch.payload.size = msg.payload.size; // compressed size hint
    }
    sim::Completion fetched = expectFetch(sim_, msg.tag, p.timeout);
    toStorage(owner, p.attempt, std::move(fetch), false);
    if (co_await fetched == 0)
        co_return;
    p.reply = takeFetchReply(msg.tag);
    p.outcome = Probe::Outcome::Replied;
}

sim::Task
PerRequestServer::verifyReplica(unsigned, const net::Message &msg, Probe &p,
                                ReadResult &out)
{
    // Functional payloads are LZ4-decompressed (codec-cache assisted) and
    // checked against the checksum the VM stamped into the storage
    // header; timing-only payloads verify by the `corrupted`
    // fault-injection bit alone.
    const net::Payload &stored = p.reply.payload;
    if (stored.corrupted)
        co_return;
    if (stored.data) {
        const std::uint32_t checksum = stampedChecksum(p.reply);
        const corpus::BlockCodecCache::Entry *cached =
            config_.blockCache
                ? config_.blockCache->lookupCompressed(
                      stored.blockId, stored.data->data(), stored.data->size())
                : nullptr;
        if (cached) {
            // The hash guard proved the stored bytes are the cached
            // compressed block, so decompression is a lookup; the header
            // checksum is still compared, as on the slow path.
            if (checksum != 0 && cached->plainChecksum != checksum)
                co_return;
            out.block.plain = cached->plain;
        } else {
            auto plain = lz4::decompress(
                *stored.data,
                stored.originalSize ? stored.originalSize : stored.size);
            if (!plain || (checksum != 0 && xxhash32(*plain) != checksum))
                co_return;
            out.block.plain = std::make_shared<const std::vector<std::uint8_t>>(
                std::move(*plain));
        }
    }
    out.have = true;
    out.in = std::max<Bytes>(stored.size, 1);
    out.block.plainSize = std::max<Bytes>(
        stored.originalSize
            ? stored.originalSize
            : (msg.payload.originalSize ? msg.payload.originalSize : out.in),
        1);
    out.block.compressibility = stored.compressibility;
}

sim::Task
PerRequestServer::verifyShard(unsigned, const net::Message &, const Probe &p,
                              bool &corrupt)
{
    const net::Payload &shard = p.reply.payload;
    corrupt = shard.corrupted ||
              (shard.data && xxhash32(*shard.data) != shard.ecShardChecksum);
    co_return;
}

sim::Task
PerRequestServer::fetchStripe(unsigned owner, const net::Message &msg,
                              ReadResult &out)
{
    // EC read: probe the pool for any k healthy shards of the stripe,
    // then rebuild it (concat when the k data shards answered, RS decode
    // from parity otherwise). Each shard probe reuses the read path's
    // timeout backoff and health machinery.
    const ec::RsCodec &codec = ecCodec(config_);
    const unsigned k = codec.k();
    // Shards are placed per request, so any node of the pool may hold one.
    const std::vector<net::NodeId> &candidates = config_.storageNodes;
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

    Stripe s;
    bool degraded = false;
    Tick timeout = config_.failover.ackTimeout;
    const Tick collect_start = sim_.now();
    for (std::size_t a = 0; a < candidates.size() && s.index.size() < k;
         ++a) {
        Probe p;
        p.target = candidates[(ring_start + a) % candidates.size()];
        p.attempt = static_cast<unsigned>(a);
        p.timeout = timeout;
        p.shard = static_cast<unsigned>(s.index.size());
        p.stripeHint = stripe_hint;
        co_await probe(owner, msg, p);
        if (p.outcome != Probe::Outcome::Replied) {
            noteFetchMiss(p.target, p.outcome == Probe::Outcome::Stale);
            degraded = true;
            timeout = std::min(timeout * 2, config_.failover.ackTimeoutCap);
            continue;
        }
        health_.noteAck(p.target);

        if (p.reply.payload.ecK == 0) {
            // Functional mode: this node holds no shard of the stripe
            // (the stub reply) — normal when probing the whole pool.
            degraded = true;
            continue;
        }
        bool corrupt = false;
        co_await verifyShard(owner, msg, p, corrupt);
        if (corrupt) {
            // A corrupt shard drops the cached copy, as a corrupt
            // replica does.
            noteCorruptFetch();
            invalidateCached(msg, fabric_.tracer(), sim_.now());
            degraded = true;
            continue;
        }
        const unsigned idx = p.reply.payload.ecShard;
        if (idx >= codec.n() ||
            std::find(s.index.begin(), s.index.end(), idx) != s.index.end())
            continue; // out of range, or a duplicate (repaired copy)
        s.index.push_back(idx);
        s.replies.push_back(std::move(p.reply));
    }
    traceSpan(msg, trace::Stage::DegradedRead, collect_start,
              static_cast<std::uint32_t>(s.index.size()));

    if (s.index.size() < k) {
        ++failover_.readsUnserved;
        co_return;
    }
    s.systematic = std::all_of(s.index.begin(), s.index.end(),
                               [k](unsigned i) { return i < k; });
    if (degraded || !s.systematic)
        ++failover_.degradedReads;
    s.bytes = std::max<Bytes>(s.replies.front().payload.ecStripeBytes, 1);
    co_await rebuildStripe(owner, msg, s, out);
    if (!out.have)
        noteCorruptStripe(msg, fabric_.tracer(), sim_.now());
}

sim::Task
PerRequestServer::rebuildStripe(unsigned, const net::Message &msg,
                                const Stripe &s, ReadResult &out)
{
    // The concat fast path (all data shards) is plain memory movement; a
    // parity decode pays the GF(256) math.
    const unsigned k = ecCodec(config_).k();
    if (!s.systematic)
        co_await rsDecode(msg, ec::RsCodec::shardSize(s.bytes, k) * k,
                          s.bytes);
    const net::Payload &stored = s.replies.front().payload;
    if (stored.data) {
        // Functional reassembly, byte for byte; the recovered stripe is
        // decompressed and verified against the write-time checksum.
        std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
            shards;
        shards.reserve(s.index.size());
        for (std::size_t i = 0; i < s.index.size(); ++i)
            shards.emplace_back(s.index[i], s.replies[i].payload.data.get());
        const auto stripe = ecCodec(config_).decode(shards, s.bytes);
        if (!stripe)
            co_return;
        auto plain = lz4::decompress(
            *stripe, stored.originalSize ? stored.originalSize : s.bytes);
        const std::uint32_t checksum = stampedChecksum(s.replies.front());
        if (!plain || (checksum != 0 && xxhash32(*plain) != checksum))
            co_return;
        out.block.plain = std::make_shared<const std::vector<std::uint8_t>>(
            std::move(*plain));
    }
    out.have = true;
    out.in = s.bytes;
    out.block.plainSize = std::max<Bytes>(
        stored.originalSize ? stored.originalSize : msg.payload.originalSize,
        1);
    out.block.compressibility = stored.compressibility;
}

sim::Task
PerRequestServer::rsDecode(const net::Message &, Bytes, Bytes)
{
    panic("%s server decodes stripes in its own rebuildStripe()",
          designName(design()));
    co_return;
}

} // namespace smartds::middletier
