#include "middletier/smartds_server.h"

#include <algorithm>
#include <utility>

#include "common/checksum.h"
#include "common/check.h"
#include "common/logging.h"
#include "lz4/lz4.h"
#include "middletier/protocol.h"

namespace smartds::middletier {

using device::SmartDsDevice;

SmartDsServer::SmartDsServer(net::Fabric &fabric, mem::MemorySystem &memory,
                             ServerConfig config, SmartDsConfig smartds)
    : sim_(fabric.simulator()), fabric_(fabric), config_(std::move(config)),
      smartds_(smartds),
      cores_(sim_, "smartds.cores", config_.cores),
      rng_(config_.seed)
{
    smartds_.device.ports = smartds_.ports;
    smartds_.device.effort = config_.effort;
    // The EC policy loads the optional RS engine bitstream component.
    if (config_.policy == ReplicationPolicy::ErasureCode)
        smartds_.device.ecEngine = true;
    device_ = std::make_unique<SmartDsDevice>(fabric, "smartds", &memory,
                                              smartds_.device);
    initFailover(config_);
    if (readCache_ &&
        config_.readCache.placement == ReadCachePlacement::DeviceHbm) {
        // The cache's capacity comes out of the HBM budget (alloc is
        // fatal on exhaustion, so an oversized cache fails loudly), and
        // every hit's device-DRAM read is billed to a fair-share flow
        // competing with the datapath's own HBM traffic.
        cacheReservation_ = device_->hbm().alloc(config_.readCache.capacityBytes);
        cacheFlow_ = device_->hbm().createFlow("smartds.cache");
    }
    for (unsigned p = 0; p < smartds_.ports; ++p) {
        requestQps_.push_back(device_->createQp(p));
        for (unsigned w = 0; w < smartds_.workersPerPort; ++w) {
            workers_.push_back(std::make_unique<Worker>());
            workers_.back()->id = static_cast<unsigned>(workers_.size() - 1);
            workers_.back()->port = p;
            sim::spawn(sim_, worker(*workers_.back()));
        }
    }
}

net::NodeId
SmartDsServer::frontNode(unsigned port) const
{
    return device_->nodeId(port);
}

net::QpId
SmartDsServer::frontQp(unsigned port) const
{
    SMARTDS_CHECK(port < requestQps_.size(), "port index out of range");
    return requestQps_[port].local;
}

void
SmartDsServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        auto *f = device_->headerReadFlow();
        return f ? f->deliveredBytes() : 0.0;
    });
    probes.add("mem.write", [this]() {
        auto *f = device_->headerWriteFlow();
        return f ? f->deliveredBytes() : 0.0;
    });
    probes.add("pcie.smartds.h2d", [this]() {
        return static_cast<double>(device_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.smartds.d2h", [this]() {
        return static_cast<double>(device_->pcieLink().d2h().totalBytes());
    });
    addFailoverProbes(probes);
}

sim::Process
SmartDsServer::repairReplica(unsigned port, net::NodeId dst,
                             device::BufferRef h, device::BufferRef d,
                             Bytes size, std::uint64_t tag, Tick issue)
{
    SmartDsDevice::Qp qp = device_->createQp(port);
    device_->connect(qp, dst, 0);
    // Drain the node's ack into the shared table (it will usually count
    // as stale — the serving path already gave this replica up); a plain
    // callback, so a node that never answers leaks nothing.
    auto ack = device_->mixedRecv(qp, h, StorageHeader::wireSize, nullptr, 0);
    ack.completion.onComplete(
        [this, msg = ack.message](std::uint64_t) { forwardAck(msg); });
    auto sent = device_->mixedSend(qp, h, StorageHeader::wireSize, d, size,
                                   net::MessageKind::WriteReplica, tag,
                                   issue);
    co_await sent.completion;
}

void
SmartDsServer::forwardAck(const device::MessageRef &ack)
{
    // A flush (QP reset) completes the receive with the message still at
    // kind Raw: only a real ack reaches the table.
    if (ack && ack->kind == net::MessageKind::WriteReplicaAck)
        deliverAck(ack->tag, ack->src);
}

void
SmartDsServer::sendReplica(const ReplicaTask &task, net::NodeId dst, bool)
{
    Worker &w = *workers_[task.fanout->owner];
    SmartDsDevice::Qp &qp = w.replicaQps[task.slot];
    // Re-targeting tears down the previous attempt first (QP reset), so
    // a late ack from the old peer cannot match the fresh descriptor;
    // the flush completes it with 0 at kind Raw, which forwardAck()
    // ignores.
    device_->resetQp(qp);
    device_->connect(qp, dst, 0);
    auto ack = device_->mixedRecv(qp, w.hAcks[task.slot],
                                  StorageHeader::wireSize, nullptr, 0);
    ack.completion.onComplete(
        [this, msg = ack.message](std::uint64_t) { forwardAck(msg); });
    device_->mixedSend(qp, w.hSend, StorageHeader::wireSize,
                       task.ec ? w.dShards[task.slot] : w.sendBuf,
                       task.blockBytes, net::MessageKind::WriteReplica,
                       task.tag, w.issue, w.tctx);
}

sim::EventCallback
SmartDsServer::repairSend(const ReplicaTask &task, net::NodeId dst)
{
    // Snapshot header and payload now — the worker reuses its buffers
    // for the next request once the all-replicas latch releases, but
    // the repair runs much later.
    const Worker &w = *workers_[task.fanout->owner];
    const device::BufferRef &out_buf =
        task.ec ? w.dShards[task.slot] : w.sendBuf;
    const Bytes out_size = task.blockBytes;
    auto h_copy = device_->hostAlloc(StorageHeader::wireSize);
    auto d_copy = device_->devAlloc(out_size ? out_size : 1);
    if (h_copy->bytes() && w.hSend->bytes())
        *h_copy->bytes() = *w.hSend->bytes();
    h_copy->content = w.hSend->content;
    if (d_copy->bytes() && out_buf->bytes())
        std::copy(out_buf->bytes()->begin(),
                  out_buf->bytes()->begin() +
                      static_cast<std::ptrdiff_t>(out_size),
                  d_copy->bytes()->begin());
    d_copy->content = out_buf->content;
    return [this, port = w.port, h_copy, d_copy, out_size, tag = task.tag,
            issue = w.issue, dst]() {
        sim::spawn(sim_, repairReplica(port, dst, h_copy, d_copy, out_size,
                                       tag, issue));
    };
}

sim::Process
SmartDsServer::worker(Worker &w)
{
    // --- Listing-1 setup: allocate buffers, connect queue pairs ---------
    const unsigned port = w.port;
    const Bytes max_block = smartds_.maxBlockBytes;
    w.hRecv = device_->hostAlloc(StorageHeader::wireSize);
    w.hSend = device_->hostAlloc(StorageHeader::wireSize);
    w.hFetch = device_->hostAlloc(StorageHeader::wireSize);
    w.dRecv = device_->devAlloc(max_block);
    w.dSend = device_->devAlloc(lz4::maxCompressedSize(max_block));

    // Per-slot storage QPs and ack buffers, plus a fetch QP for reads and
    // a reply QP toward the VM.
    const unsigned fanout = config_.writeFanout();
    for (unsigned r = 0; r < fanout; ++r) {
        w.replicaQps.push_back(device_->createQp(port));
        w.hAcks.push_back(device_->hostAlloc(StorageHeader::wireSize));
    }
    // Erasure coding: one HBM buffer per shard slot (writes RS-encode
    // into them; reads gather fetched shards into them), plus a zero-byte
    // hint buffer that rides on header-only shard fetches so timing-mode
    // storage synthesises shard-sized replies.
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const Bytes shard_cap = ec::RsCodec::shardSize(
            lz4::maxCompressedSize(max_block), config_.ec.dataShards);
        for (unsigned s = 0; s < fanout; ++s)
            w.dShards.push_back(device_->devAlloc(shard_cap));
        w.dHint = device_->devAlloc(1);
    }
    w.fetchQp = device_->createQp(port);
    w.replyQp = device_->createQp(port);
    // Short names for the loop below.
    const device::BufferRef &h_recv = w.hRecv;
    const device::BufferRef &h_send = w.hSend;
    const device::BufferRef &h_fetch = w.hFetch;
    const device::BufferRef &d_recv = w.dRecv;
    const device::BufferRef &d_send = w.dSend;
    const std::vector<device::BufferRef> &d_shards = w.dShards;
    const device::BufferRef &d_hint = w.dHint;
    SmartDsDevice::Qp &fetch_qp = w.fetchQp;
    SmartDsDevice::Qp &reply_qp = w.replyQp;

    const SmartDsDevice::Qp &request_qp = requestQps_[port];

    while (true) {
        // --- Receive: header to host memory, payload stays in HBM ------
        auto recv = device_->mixedRecv(request_qp, h_recv,
                                       StorageHeader::wireSize, d_recv,
                                       max_block);
        co_await recv.completion;
        const Bytes payload_size = recv.size();
        SMARTDS_CHECK(recv.message, "recv completed without a message");
        const net::Message &req = *recv.message;
        trace::Tracer *tracer = fabric_.tracer();
        const trace::TraceContext tctx = req.trace;

        // --- Host CPU: flexibly parse the header, prepare the send -----
        const std::uint32_t parse_depth =
            static_cast<std::uint32_t>(cores_.queueDepth());
        const Tick parse_start = sim_.now();
        co_await cores_.executeAsync(calibration::smartdsHostRequestCost);
        if (tracer && tctx)
            tracer->record(tctx, trace::Stage::HostParse, parse_start,
                           sim_.now(), parse_depth);
        bool latency_sensitive = req.latencySensitive;
        std::uint64_t tag = req.tag;
        if (device_->config().functional && h_recv->bytes()) {
            const StorageHeader hdr =
                StorageHeader::decode(h_recv->bytes()->data());
            latency_sensitive = hdr.latencySensitive != 0;
            tag = hdr.tag;
            // host_fill_send_h_buf: the reply/replica header.
            StorageHeader out = hdr;
            out.payloadSize = static_cast<std::uint32_t>(payload_size);
            out.encodeInto(h_send->bytes()->data());
        }

        if (req.kind == net::MessageKind::ReadRequest) {
            // Hot-block cache: a hit serves the verified plaintext with
            // one device-DRAM read (HBM placement) or one request's host
            // cost — no fetch round trip, no RS decode, no decompression.
            if (readCache_) {
                if (const HotBlockCache::Entry *hit =
                        readCache_->lookup(req.vmId, req.blockOffset)) {
                    // Snapshot the entry: the lookup pointer dies if
                    // another worker touches the cache while we are
                    // suspended below.
                    const HotBlockCache::Entry cached = *hit;
                    const Tick hit_start = sim_.now();
                    if (cacheFlow_) {
                        sim::Completion cache_read(sim_);
                        cacheFlow_->transfer(cached.plainSize,
                                             [cache_read]() mutable {
                                                 cache_read.complete(0);
                                             });
                        co_await cache_read;
                    } else {
                        co_await cores_.executeAsync(
                            calibration::smartdsHostRequestCost);
                    }
                    if (d_recv->bytes() && cached.plain)
                        std::copy(cached.plain->begin(), cached.plain->end(),
                                  d_recv->bytes()->begin());
                    d_recv->content = device::BufferContent{};
                    d_recv->content.size = cached.plainSize;
                    d_recv->content.compressibility = cached.compressibility;
                    if (tracer && tctx)
                        tracer->record(tctx, trace::Stage::CacheHit,
                                       hit_start, sim_.now());
                    device_->connect(reply_qp, req.src, req.srcQp);
                    auto reply = device_->mixedSend(
                        reply_qp, h_send, StorageHeader::wireSize, d_recv,
                        cached.plainSize, net::MessageKind::ReadReply, tag,
                        req.issueTick, tctx);
                    co_await reply.completion;
                    continue;
                }
                if (tracer && tctx)
                    tracer->record(tctx, trace::Stage::CacheMiss, sim_.now(),
                                   sim_.now());
            }

            bool served = false;
            Bytes plain_size = 0;
            Tick timeout = config_.failover.ackTimeout;
            if (config_.policy == ReplicationPolicy::ErasureCode) {
                // --- EC read: gather any k shards, decode on-card -------
                // Each shard probe reuses the fetch QP timeout/reset idiom
                // of the replicated read path below; the RS engine
                // reassembles the stripe in HBM and the LZ4 engine
                // decompresses it.
                const ec::RsCodec &codec = ecCodec(config_);
                const unsigned k = codec.k();
                const unsigned n = codec.n();
                const auto candidates = readCandidates(config_, req);
                SMARTDS_CHECK(candidates.size() >= k,
                              "EC read needs %u storage nodes, have %zu", k,
                              candidates.size());
                const std::size_t ring_start = rng_.below(candidates.size());
                const Bytes stripe_hint =
                    req.payload.size
                        ? req.payload.size
                        : static_cast<Bytes>(
                              static_cast<double>(req.payload.originalSize) *
                              req.payload.compressibility);
                bool degraded = false;
                std::vector<std::pair<unsigned, device::BufferRef>> got;
                std::vector<bool> have_idx(n, false);
                Bytes shard_sz = 0;
                Bytes stripe_bytes = 0;
                const Tick collect_start = sim_.now();
                for (std::size_t a = 0;
                     a < candidates.size() && got.size() < k; ++a) {
                    const net::NodeId target =
                        candidates[(ring_start + a) % candidates.size()];
                    device_->resetQp(fetch_qp);
                    device_->connect(fetch_qp, target, 0);
                    device::BufferRef dest = d_shards[got.size()];
                    auto fetch_reply = device_->mixedRecv(
                        fetch_qp, h_fetch, StorageHeader::wireSize, dest,
                        dest->capacity());
                    d_hint->content = device::BufferContent{};
                    d_hint->content.compressibility = 0.0;
                    d_hint->content.originalSize = req.payload.originalSize;
                    d_hint->content.ecK = static_cast<std::uint8_t>(k);
                    d_hint->content.ecM = static_cast<std::uint8_t>(codec.m());
                    d_hint->content.ecShard = static_cast<std::uint8_t>(
                        std::min<std::size_t>(got.size(), n - 1));
                    d_hint->content.ecStripeBytes = stripe_hint;
                    auto fetch = device_->mixedSend(
                        fetch_qp, h_send, StorageHeader::wireSize, d_hint, 0,
                        net::MessageKind::ReadFetch, tag, req.issueTick,
                        tctx);
                    co_await fetch.completion;
                    sim::EventHandle timer;
                    if (timeout > 0)
                        timer = sim_.schedule(
                            timeout,
                            [this, &fetch_qp]() {
                                device_->resetQp(fetch_qp);
                            },
                            sim::EventTag::Nic);
                    co_await fetch_reply.completion;
                    timer.cancel();
                    const net::Message *rep = fetch_reply.message.get();
                    if (!rep ||
                        rep->kind != net::MessageKind::ReadFetchReply ||
                        rep->tag != tag) {
                        noteFetchMiss(target,
                                      rep && rep->kind ==
                                                 net::MessageKind::
                                                     ReadFetchReply);
                        degraded = true;
                        timeout = std::min(timeout * 2,
                                           config_.failover.ackTimeoutCap);
                        continue;
                    }
                    health_.noteAck(target);
                    if (rep->payload.ecK == 0) {
                        // Functional stub: this node holds no shard.
                        degraded = true;
                        continue;
                    }
                    // Scrub the shard with the checksum engine before use.
                    auto scrub = device_->devFunc(
                        dest, fetch_reply.size(), d_recv, d_recv->capacity(),
                        port, device::EngineOp::Checksum, tctx);
                    co_await scrub.completion;
                    bool shard_corrupt = rep->payload.corrupted;
                    if (dest->bytes())
                        shard_corrupt = shard_corrupt ||
                                        scrub.completion.value() !=
                                            rep->payload.ecShardChecksum;
                    if (shard_corrupt) {
                        noteCorruptFetch();
                        invalidateCached(req, tracer, sim_.now());
                        degraded = true;
                        continue;
                    }
                    const unsigned idx = rep->payload.ecShard;
                    if (idx >= n || have_idx[idx])
                        continue; // duplicate shard (repaired copy)
                    have_idx[idx] = true;
                    shard_sz = fetch_reply.size();
                    if (rep->payload.ecStripeBytes)
                        stripe_bytes = rep->payload.ecStripeBytes;
                    got.emplace_back(idx, dest);
                }
                if (tracer && tctx)
                    tracer->record(tctx, trace::Stage::DegradedRead,
                                   collect_start, sim_.now(),
                                   static_cast<std::uint32_t>(got.size()));

                const bool have = got.size() >= k;
                bool systematic = have;
                for (std::size_t i = 0; i < got.size(); ++i)
                    systematic = systematic && got[i].first < k;
                if (have && (degraded || !systematic))
                    ++failover_.degradedReads;
                if (!have) {
                    ++failover_.readsUnserved;
                } else {
                    if (stripe_bytes == 0)
                        stripe_bytes = shard_sz * static_cast<Bytes>(k);
                    auto decoded = device_->ecDecode(got, stripe_bytes,
                                                     d_send, port, k,
                                                     codec.m(), tctx);
                    co_await decoded.completion;
                    auto plain = device_->devFunc(
                        d_send, stripe_bytes, d_recv, d_recv->capacity(),
                        port, device::EngineOp::Decompress, tctx);
                    co_await plain.completion;
                    bool corrupt = d_recv->content.corrupted;
                    if (!corrupt && device_->config().functional &&
                        d_recv->bytes() && h_fetch->bytes()) {
                        const StorageHeader stored =
                            StorageHeader::decode(h_fetch->bytes()->data());
                        corrupt = stored.blockChecksum != 0 &&
                                  xxhash32(d_recv->bytes()->data(),
                                           plain.size()) !=
                                      stored.blockChecksum;
                    }
                    if (corrupt) {
                        noteCorruptStripe(req, tracer, sim_.now());
                    } else {
                        plain_size = plain.size();
                        served = true;
                    }
                }
            } else {
                // --- Replicated read (Fig. 3b): fetch, decompress -------
                // A fetch that times out resets the QP (flushing the
                // posted receive) and fails over to another replica; a
                // fetched block whose engine decode or checksum fails does
                // the same.
                const auto candidates = readCandidates(config_, req);
                const std::size_t start =
                    candidates.empty() ? 0 : rng_.below(candidates.size());
                for (std::size_t i = 0; i < candidates.size() && !served;
                     ++i) {
                    const net::NodeId target =
                        candidates[(start + i) % candidates.size()];
                    device_->resetQp(fetch_qp);
                    device_->connect(fetch_qp, target, 0);
                    auto fetch_reply = device_->mixedRecv(
                        fetch_qp, h_fetch, StorageHeader::wireSize, d_send,
                        d_send->capacity());
                    auto fetch = device_->mixedSend(
                        fetch_qp, h_send, StorageHeader::wireSize, nullptr,
                        0, net::MessageKind::ReadFetch, tag, req.issueTick,
                        tctx);
                    co_await fetch.completion;
                    sim::EventHandle timer;
                    if (timeout > 0)
                        timer = sim_.schedule(
                            timeout,
                            [this, &fetch_qp]() {
                                device_->resetQp(fetch_qp);
                            },
                            sim::EventTag::Nic);
                    co_await fetch_reply.completion;
                    timer.cancel();
                    const net::Message *rep = fetch_reply.message.get();
                    if (!rep ||
                        rep->kind != net::MessageKind::ReadFetchReply ||
                        rep->tag != tag) {
                        // Timed out (flush) or a stale reply from a
                        // previous attempt: strike the node, try the next
                        // replica.
                        noteFetchMiss(target,
                                      rep && rep->kind ==
                                                 net::MessageKind::
                                                     ReadFetchReply);
                        timeout = std::min(timeout * 2,
                                           config_.failover.ackTimeoutCap);
                        continue;
                    }
                    health_.noteAck(target);

                    auto plain = device_->devFunc(
                        d_send, fetch_reply.size(), d_recv,
                        d_recv->capacity(), port,
                        device::EngineOp::Decompress, tctx);
                    co_await plain.completion;
                    bool corrupt = d_recv->content.corrupted;
                    if (!corrupt && device_->config().functional &&
                        d_recv->bytes() && h_fetch->bytes()) {
                        const StorageHeader stored =
                            StorageHeader::decode(h_fetch->bytes()->data());
                        corrupt = xxhash32(d_recv->bytes()->data(),
                                           plain.size()) !=
                                  stored.blockChecksum;
                    }
                    if (corrupt) {
                        noteCorruptFetch();
                        invalidateCached(req, tracer, sim_.now());
                        continue;
                    }
                    plain_size = plain.size();
                    served = true;
                }
                if (!served)
                    ++failover_.readsUnserved;
            }

            // Keep the verified plaintext for future hits, then reply.
            if (served && readCache_) {
                std::shared_ptr<const std::vector<std::uint8_t>> plain_bytes;
                if (d_recv->bytes())
                    plain_bytes =
                        std::make_shared<const std::vector<std::uint8_t>>(
                            d_recv->bytes()->begin(),
                            d_recv->bytes()->begin() +
                                static_cast<std::ptrdiff_t>(plain_size));
                readCache_->insert(req.vmId, req.blockOffset,
                                   {plain_size,
                                    d_recv->content.compressibility,
                                    std::move(plain_bytes)});
            }
            device_->connect(reply_qp, req.src, req.srcQp);
            auto reply = device_->mixedSend(
                reply_qp, h_send, StorageHeader::wireSize,
                served ? d_recv : nullptr, plain_size,
                net::MessageKind::ReadReply, tag, req.issueTick, tctx);
            co_await reply.completion;
            continue;
        }

        // --- Write path (Listing 1) -------------------------------------
        // Write-through coherence: drop the cached copy before serving
        // the write, so no concurrent read can hit stale bytes.
        invalidateCached(req, tracer, sim_.now());
        device::BufferRef send_buf = d_recv;
        Bytes send_size = payload_size;
        if (!latency_sensitive) {
            auto compressed = device_->devFunc(d_recv, payload_size, d_send,
                                               d_send->capacity(), port,
                                               device::EngineOp::Compress,
                                               tctx);
            co_await compressed.completion;
            send_buf = d_send;
            send_size = compressed.size();
        }

        // Erasure coding: RS-encode the (compressed) stripe on-card into
        // the k + m shard buffers; each replica slot then sends one shard
        // instead of the whole block.
        const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
        Bytes shard_size = 0;
        if (ec) {
            auto encoded = device_->ecEncode(send_buf, send_size, d_shards,
                                             port, config_.ec.dataShards,
                                             config_.ec.parityShards, tctx);
            co_await encoded.completion;
            shard_size = encoded.size();
            ++failover_.stripesEncoded;
            ecLedgerOpen(tag, d_shards.size());
        }

        // Each replica task sends from this worker's buffers through the
        // sendReplica() hook; the fan-out record carries the placement
        // and latches.
        WriteFanout &f = openFanout(sim_, config_, req, rng_, w.id);
        SMARTDS_CHECK(f.nodes.size() <= w.replicaQps.size(),
                       "placement wider than the worker's replica QPs");
        w.sendBuf = send_buf;
        w.issue = req.issueTick;
        w.tctx = tctx;
        const unsigned replicas = static_cast<unsigned>(f.nodes.size());
        const Tick replicate_start = sim_.now();

        for (unsigned r = 0; r < replicas; ++r) {
            ReplicaTask task;
            task.tag = tag;
            task.vmId = req.vmId;
            task.blockOffset = req.blockOffset;
            task.blockBytes = ec ? shard_size : send_size;
            task.target = f.nodes[r];
            task.slot = r;
            task.ec = ec;
            task.fanout = &f;
            sim::spawn(sim_,
                       replicateWithFailover(sim_, rng_, config_, task));
        }
        co_await f.quorum->wait();
        if (tracer && tctx)
            tracer->record(tctx, trace::Stage::Replicate, replicate_start,
                           sim_.now(), replicas);
        sim::Completion all_acks = f.all->wait();
        if (!all_acks.done())
            ++failover_.quorumCompletions;
        releaseFanout(f);

        // --- Acknowledge the VM -----------------------------------------
        device_->connect(reply_qp, req.src, req.srcQp);
        auto reply = device_->mixedSend(reply_qp, h_send,
                                        StorageHeader::wireSize, nullptr, 0,
                                        net::MessageKind::WriteReply, tag,
                                        req.issueTick, tctx);
        co_await reply.completion;
        noteCompleted(payload_size);

        // The replica QPs and send buffers are reused by the next request
        // — wait for every straggler (late ack, retry, or abandonment)
        // before looping.
        co_await all_acks;
    }
}

} // namespace smartds::middletier
