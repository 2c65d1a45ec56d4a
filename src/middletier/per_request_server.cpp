#include "middletier/per_request_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "middletier/maintenance.h"
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

std::vector<net::Payload>
encodeShards(const ec::RsCodec &codec, const net::Payload &block)
{
    const unsigned n = codec.n();
    const Bytes shard_bytes = ec::RsCodec::shardSize(block.size, codec.k());
    std::vector<std::vector<std::uint8_t>> encoded;
    if (block.data)
        encoded = codec.encode(block.data->data(), block.data->size());
    std::vector<net::Payload> shards(n);
    for (unsigned s = 0; s < n; ++s) {
        net::Payload &p = shards[s];
        p.size = shard_bytes;
        p.compressibility = block.compressibility;
        p.compressed = block.compressed;
        p.originalSize = block.originalSize;
        p.ecK = static_cast<std::uint8_t>(codec.k());
        p.ecM = static_cast<std::uint8_t>(codec.m());
        p.ecShard = static_cast<std::uint8_t>(s);
        p.ecStripeBytes = block.size;
        if (!encoded.empty()) {
            auto bytes = std::make_shared<std::vector<std::uint8_t>>(
                std::move(encoded[s]));
            p.ecShardChecksum = xxhash32(*bytes);
            p.data = std::move(bytes);
        }
    }
    return shards;
}

PerRequestServer::PerRequestServer(net::Fabric &fabric, ServerConfig config)
    : sim_(fabric.simulator()), fabric_(fabric), config_(std::move(config)),
      rng_(config_.seed), health_(calibration::nodeSuspectThreshold),
      placement_(config_.storageNodes, config_.storageDomains)
{
    if (config_.policy == ReplicationPolicy::ErasureCode)
        codec_ = std::make_unique<const ec::RsCodec>(config_.ec.dataShards,
                                                     config_.ec.parityShards);
    if (config_.readCache.capacityBytes > 0)
        readCache_ =
            std::make_unique<HotBlockCache>(config_.readCache.capacityBytes);
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

void
PerRequestServer::invalidateCached(const net::Message &req)
{
    if (cacheInvalidate(req.vmId, req.blockOffset))
        traceSpan(req, trace::Stage::CacheInvalidate, sim_.now());
}

std::vector<net::Payload>
PerRequestServer::encodeShards(std::uint64_t tag, const net::Payload &block)
{
    auto shards = middletier::encodeShards(*codec_, block);
    openStripe(tag, codec_->n());
    return shards;
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
    invalidateCached(msg);

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
    WriteFanout &f = openFanout(w);
    const unsigned fanout = static_cast<unsigned>(f.nodes.size());
    const Tick replicate_start = sim_.now();
    stageReplicas(w, f);
    for (unsigned r = 0; r < fanout; ++r)
        sim::spawn(sim_, replicateWithFailover({&f, r}));
    co_await f.quorum->wait();
    traceSpan(msg, trace::Stage::Replicate, replicate_start, fanout);
    if (!f.all->wait().done())
        ++failover_.quorumCompletions;
    releaseFanout(f);

    co_await toClient(owner, replyTo(msg, net::MessageKind::WriteReply));
    ++requestsCompleted_;
}

void
PerRequestServer::stageReplicas(WriteJob &w, WriteFanout &f)
{
    f.messages.resize(f.nodes.size());
    for (std::size_t r = 0; r < f.messages.size(); ++r) {
        net::Message &replica = f.messages[r];
        replica.kind = net::MessageKind::WriteReplica;
        replica.headerBytes = StorageHeader::wireSize;
        replica.tag = w.req.tag;
        replica.issueTick = w.req.issueTick;
        replica.trace = w.req.trace;
        replica.payload = f.ec ? w.shards[r] : w.block();
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
    const auto candidates = readCandidates(msg, chunk_set);
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
            invalidateCached(msg);
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
    if (codec_) {
        fetch.payload.size = ec::RsCodec::shardSize(p.stripeHint, codec_->k());
        fetch.payload.ecK = static_cast<std::uint8_t>(codec_->k());
        fetch.payload.ecM = static_cast<std::uint8_t>(codec_->m());
        fetch.payload.ecShard = static_cast<std::uint8_t>(p.shard);
        fetch.payload.ecStripeBytes = p.stripeHint;
    } else {
        fetch.payload.size = msg.payload.size; // compressed size hint
    }
    sim::Completion fetched = expectFetch(msg.tag, p.timeout);
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
    const ec::RsCodec &codec = *codec_;
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
            invalidateCached(msg);
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
        noteCorruptStripe(msg);
}

sim::Task
PerRequestServer::rebuildStripe(unsigned, const net::Message &msg,
                                const Stripe &s, ReadResult &out)
{
    // The concat fast path (all data shards) is plain memory movement; a
    // parity decode pays the GF(256) math.
    const unsigned k = codec_->k();
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
        const auto stripe = codec_->decode(shards, s.bytes);
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

// --- The protocol's bookkeeping --------------------------------------------

PerRequestServer::WriteFanout &
PerRequestServer::openFanout(const WriteJob &w)
{
    if (freeFanouts_.empty()) {
        fanouts_.push_back(std::make_unique<WriteFanout>());
        freeFanouts_.push_back(fanouts_.back().get());
    }
    WriteFanout &f = *freeFanouts_.back();
    freeFanouts_.pop_back();
    f.tag = w.req.tag;
    f.vmId = w.req.vmId;
    f.blockOffset = w.req.blockOffset;
    f.ec = config_.policy == ReplicationPolicy::ErasureCode;
    f.blockBytes =
        f.ec ? ec::RsCodec::shardSize(w.compressed, config_.ec.dataShards)
             : w.compressed;
    placeWrite(w.req, f);
    const unsigned n = static_cast<unsigned>(f.nodes.size());
    f.quorum.emplace(sim_, writeQuorum(n));
    f.all.emplace(sim_, n);
    f.owner = w.owner;
    f.holders = 1 + n;
    return f;
}

void
PerRequestServer::releaseFanout(WriteFanout &f)
{
    SMARTDS_CHECK(f.holders > 0, "fan-out record released too often");
    if (--f.holders > 0)
        return;
    // Keep the vectors' capacity for the next write; drop the payloads.
    f.messages.clear();
    f.quorum.reset();
    f.all.reset();
    freeFanouts_.push_back(&f);
}

void
PerRequestServer::placeWrite(const net::Message &msg, WriteFanout &f)
{
    // EC stripes are placed per request: the chunk manager's sticky
    // whole-chunk replica sets do not apply to shard placement.
    f.chunked = config_.chunkManager && !f.ec;
    if (!f.chunked) {
        f.chunk = {};
        const std::span<const net::NodeId> picked =
            placement_.draw(rng_, &health_, config_.writeFanout());
        f.nodes.assign(picked.begin(), picked.end());
        return;
    }
    f.chunk = config_.chunkManager->locate(msg.vmId, msg.blockOffset);
    const ReplicaSet &set =
        config_.chunkManager->writeReplicas(f.chunk, &health_);
    f.nodes.assign(set.begin(), set.end());
}

unsigned
PerRequestServer::writeQuorum(std::size_t replicas) const
{
    unsigned q = config_.failover.ackQuorum;
    if (q == 0 || q > replicas)
        return static_cast<unsigned>(replicas);
    if (config_.policy == ReplicationPolicy::ErasureCode &&
        q < config_.ec.dataShards)
        q = config_.ec.dataShards;
    return q;
}

sim::Process
PerRequestServer::replicateWithFailover(ReplicaTask task)
{
    WriteFanout &f = *task.fanout;
    Tick timeout = config_.failover.ackTimeout;
    net::NodeId target = f.nodes[task.slot];
    bool durable = false;
    bool first = task.slot == 0;
    for (unsigned attempt = 0;; ++attempt) {
        sim::Completion ack = expectAck(f.tag, target, timeout);
        sendReplica(task, target, std::exchange(first, false));
        failover_.replicaBytesSent += f.blockBytes;
        if (co_await ack != 0) {
            health_.noteAck(target);
            durable = true;
            break;
        }
        if (health_.noteTimeout(target))
            ++failover_.nodesSuspected;
        if (attempt >= config_.failover.maxRetries)
            break;
        ++failover_.replicaRetries;
        // First retry stays on the same node (a single timeout is often
        // transient); repeat offenders — or nodes already suspected —
        // get the replica moved to a healthy peer.
        if (attempt > 0 || health_.suspected(target)) {
            const net::NodeId next = moveReplica(task, target);
            if (next != target) {
                ++failover_.replicaReplacements;
                target = next;
            }
        }
        timeout = std::min(timeout * 2, config_.failover.ackTimeoutCap);
    }
    if (!durable) {
        ++failover_.replicasAbandoned;
        // The block is about to be rewritten by a background repair /
        // reconstruction; the cached copy must not outlive it.
        cacheInvalidate(f.vmId, f.blockOffset);
        if (maintenance_) {
            // Move the replica off the failing node for good and hand the
            // resend to the background repair queue; the serving path
            // stops waiting on it.
            const net::NodeId repair_target = moveReplica(task, target);
            // An abandoned EC shard is reconstructed from k surviving
            // shards; a whole-block replica is simply re-read and
            // re-sent. Keyed by (tag, slot) so a flapping node cannot
            // enqueue the same shard twice.
            const unsigned fan_in = f.ec ? config_.ec.dataShards : 1;
            if (sim::EventCallback resend = repairSend(task, repair_target);
                resend &&
                maintenance_->scheduleRepair({f.tag, task.slot},
                                             f.blockBytes, fan_in,
                                             std::move(resend)))
                ++failover_.repairsScheduled;
        }
    }
    if (f.ec)
        ecLedgerArrive(f.tag, task.slot);
    f.quorum->tryArrive();
    f.all->arrive();
    releaseFanout(f);
}

net::NodeId
PerRequestServer::moveReplica(const ReplicaTask &task, net::NodeId bad)
{
    WriteFanout &f = *task.fanout;
    const std::span<const net::NodeId> spare =
        placement_.draw(rng_, &health_, 1, f.nodes);
    if (spare.empty())
        return bad;
    f.nodes[task.slot] = spare[0];
    if (f.chunked)
        config_.chunkManager->replaceReplica(f.chunk, bad, spare[0]);
    return spare[0];
}

sim::Completion
PerRequestServer::expectAck(std::uint64_t tag, net::NodeId node,
                            Tick timeout)
{
    sim::Completion ack(sim_);
    const AckKey key{tag, node};
    const auto [entry, fresh] =
        pendingAcks_.tryEmplace(key, PendingEntry{ack, {}});
    SMARTDS_CHECK(fresh, "duplicate ack expectation for tag %llu",
                   static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // The timer completes the same completion the waiter holds, so a
        // lost ack needs no watcher coroutine and cannot leak one.
        entry->timer = sim_.schedule(
            timeout,
            [this, key]() {
                PendingEntry *pending = pendingAcks_.find(key);
                if (!pending)
                    return;
                sim::Completion waiter = pending->completion;
                pendingAcks_.erase(key);
                ++failover_.replicaTimeouts;
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return ack;
}

void
PerRequestServer::deliverAck(std::uint64_t tag, net::NodeId node)
{
    const AckKey key{tag, node};
    PendingEntry *pending = pendingAcks_.find(key);
    if (!pending) {
        // Late ack from a retired wait (the replica was retried or the
        // block repaired in the background). Expected under failover.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion waiter = pending->completion;
    pending->timer.cancel();
    pendingAcks_.erase(key);
    waiter.complete(1);
}

std::span<const net::NodeId>
PerRequestServer::readCandidates(const net::Message &msg, ReplicaSet &set)
{
    if (!config_.chunkManager)
        return config_.storageNodes;
    const ChunkRef chunk =
        config_.chunkManager->locate(msg.vmId, msg.blockOffset);
    set = config_.chunkManager->replicas(chunk, &health_);
    return {set.begin(), set.end()};
}

sim::Completion
PerRequestServer::expectFetch(std::uint64_t tag, Tick timeout)
{
    sim::Completion fetched(sim_);
    const auto [entry, fresh] =
        pendingFetches_.tryEmplace(tag, PendingEntry{fetched, {}});
    SMARTDS_CHECK(fresh, "duplicate pending fetch for tag %llu",
                  static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // Holding the timer per-entry (and cancelling it on delivery)
        // is load-bearing: with a bare schedule(), a timer armed for an
        // earlier probe of the same tag would fire into a later probe's
        // wait and fail it spuriously.
        entry->timer = sim_.schedule(
            timeout,
            [this, tag]() {
                PendingEntry *pending = pendingFetches_.find(tag);
                if (!pending)
                    return;
                sim::Completion waiter = pending->completion;
                pendingFetches_.erase(tag);
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return fetched;
}

void
PerRequestServer::deliverFetch(net::Message &&msg)
{
    PendingEntry *pending = pendingFetches_.find(msg.tag);
    if (!pending) {
        // The fetch timed out and moved on; late data is dropped.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion done = pending->completion;
    pending->timer.cancel();
    pendingFetches_.erase(msg.tag);
    const std::uint64_t tag = msg.tag;
    fetchReplies_[tag] = std::move(msg);
    done.complete(1);
}

net::Message
PerRequestServer::takeFetchReply(std::uint64_t tag)
{
    net::Message *stashed = fetchReplies_.find(tag);
    SMARTDS_CHECK(stashed, "lost fetch reply");
    net::Message reply = std::move(*stashed);
    fetchReplies_.erase(tag);
    return reply;
}

} // namespace smartds::middletier
