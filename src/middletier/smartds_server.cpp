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
    : PerRequestServer(fabric, std::move(config)), smartds_(smartds),
      cores_(sim_, "smartds.cores", config_.cores)
{
    smartds_.device.ports = smartds_.ports;
    smartds_.device.effort = config_.effort;
    // The EC policy loads the optional RS engine bitstream component.
    if (config_.policy == ReplicationPolicy::ErasureCode)
        smartds_.device.ecEngine = true;
    device_ = std::make_unique<SmartDsDevice>(fabric, "smartds", &memory,
                                              smartds_.device);
    if (config_.readCache.capacityBytes > 0 &&
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
    const WriteFanout &f = *task.fanout;
    Worker &w = *workers_[f.owner];
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
                       f.ec ? w.dShards[task.slot] : w.sendBuf,
                       f.blockBytes, net::MessageKind::WriteReplica, f.tag,
                       w.issue, w.tctx);
}

sim::EventCallback
SmartDsServer::repairSend(const ReplicaTask &task, net::NodeId dst)
{
    // Snapshot header and payload now — the worker reuses its buffers
    // for the next request once the all-replicas latch releases, but
    // the repair runs much later.
    const WriteFanout &f = *task.fanout;
    const Worker &w = *workers_[f.owner];
    const device::BufferRef &out_buf = f.ec ? w.dShards[task.slot] : w.sendBuf;
    const Bytes out_size = f.blockBytes;
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
    return [this, port = w.port, h_copy, d_copy, out_size, tag = f.tag,
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

    const SmartDsDevice::Qp &request_qp = requestQps_[port];
    while (true) {
        // --- Receive: header to host memory, payload stays in HBM ------
        auto recv = device_->mixedRecv(request_qp, w.hRecv,
                                       StorageHeader::wireSize, w.dRecv,
                                       max_block);
        co_await recv.completion;
        SMARTDS_CHECK(recv.message, "recv completed without a message");
        net::Message &req = *recv.message;

        // --- Host CPU: flexibly parse the header, prepare the send -----
        // The parsed tag and latency flag are what the datapath serves.
        co_await parseOn(cores_, calibration::smartdsHostRequestCost, req);
        if (device_->config().functional && w.hRecv->bytes()) {
            const StorageHeader hdr =
                StorageHeader::decode(w.hRecv->bytes()->data());
            req.latencySensitive = hdr.latencySensitive != 0;
            req.tag = hdr.tag;
            // host_fill_send_h_buf: the reply/replica header.
            StorageHeader out = hdr;
            out.payloadSize = static_cast<std::uint32_t>(recv.size());
            out.encodeInto(w.hSend->bytes()->data());
        }

        // --- The shared datapath, its hooks on this worker's buffers ---
        if (req.kind == net::MessageKind::ReadRequest) {
            co_await serveRead(w.id, req);
            continue;
        }
        co_await serveWrite(w.id, req);
        // The replica QPs and send buffers are reused by the next request
        // — wait for every straggler (late ack, retry, or abandonment)
        // before looping.
        co_await *w.replicated;
    }
}

sim::Task
SmartDsServer::parse(const net::Message &)
{
    co_return;
}

sim::Task
SmartDsServer::compress(WriteJob &job)
{
    Worker &w = *workers_[job.owner];
    const net::Message &req = job.req;
    w.sendBuf = w.dRecv;
    job.compressed = req.payload.size;
    if (req.latencySensitive)
        co_return;
    auto compressed = device_->devFunc(w.dRecv, req.payload.size, w.dSend,
                                       w.dSend->capacity(), w.port,
                                       device::EngineOp::Compress,
                                       req.trace);
    co_await compressed.completion;
    w.sendBuf = w.dSend;
    job.compressed = compressed.size();
}

sim::Task
SmartDsServer::ecEncode(WriteJob &job)
{
    // RS-encode the (compressed) stripe on-card into the k + m shard
    // buffers; each replica slot then sends one shard.
    Worker &w = *workers_[job.owner];
    auto encoded = device_->ecEncode(w.sendBuf, job.compressed, w.dShards,
                                     w.port, config_.ec.dataShards,
                                     config_.ec.parityShards, job.req.trace);
    co_await encoded.completion;
    openStripe(job.req.tag, static_cast<unsigned>(w.dShards.size()));
}

void
SmartDsServer::stageReplicas(WriteJob &job, WriteFanout &f)
{
    // Each replica task sends from this worker's buffers through the
    // sendReplica() hook.
    Worker &w = *workers_[f.owner];
    SMARTDS_CHECK(f.nodes.size() <= w.replicaQps.size(),
                  "placement wider than the worker's replica QPs");
    w.issue = job.req.issueTick;
    w.tctx = job.req.trace;
    w.replicated = f.all->wait();
}

sim::Task
SmartDsServer::probe(unsigned owner, const net::Message &msg, Probe &p)
{
    // A fetch that times out resets the QP, flushing the posted receive;
    // a late reply from an earlier probe of this read may still land on
    // the re-posted receive and serve it.
    Worker &w = *workers_[owner];
    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    device_->resetQp(w.fetchQp);
    device_->connect(w.fetchQp, p.target, 0);
    const device::BufferRef &dest = ec ? w.dShards[p.shard] : w.dSend;
    auto reply = device_->mixedRecv(w.fetchQp, w.hFetch,
                                    StorageHeader::wireSize, dest,
                                    dest->capacity());
    device::BufferRef hint;
    if (ec) {
        w.dHint->content = device::BufferContent{};
        w.dHint->content.compressibility = 0.0;
        w.dHint->content.originalSize = msg.payload.originalSize;
        w.dHint->content.ecK =
            static_cast<std::uint8_t>(config_.ec.dataShards);
        w.dHint->content.ecM =
            static_cast<std::uint8_t>(config_.ec.parityShards);
        w.dHint->content.ecShard = static_cast<std::uint8_t>(p.shard);
        w.dHint->content.ecStripeBytes = p.stripeHint;
        hint = w.dHint;
    }
    auto sent = device_->mixedSend(w.fetchQp, w.hSend,
                                   StorageHeader::wireSize, hint, 0,
                                   net::MessageKind::ReadFetch, msg.tag,
                                   msg.issueTick, msg.trace);
    co_await sent.completion;
    sim::EventHandle timer;
    if (p.timeout > 0)
        timer = sim_.schedule(
            p.timeout, [this, &w]() { device_->resetQp(w.fetchQp); },
            sim::EventTag::Nic);
    co_await reply.completion;
    timer.cancel();
    // A flush completes the receive with the message still at kind Raw.
    const net::Message *rep = reply.message.get();
    if (!rep || rep->kind != net::MessageKind::ReadFetchReply)
        co_return;
    if (rep->tag != msg.tag) {
        p.outcome = Probe::Outcome::Stale;
        co_return;
    }
    w.fetched = reply.size();
    p.reply = std::move(*reply.message);
    p.outcome = Probe::Outcome::Replied;
}

void
SmartDsServer::acceptPlain(const Worker &w, Bytes plain, bool unstamped_ok,
                           ReadResult &out) const
{
    if (w.dRecv->content.corrupted)
        return;
    if (device_->config().functional && w.dRecv->bytes() &&
        w.hFetch->bytes()) {
        const StorageHeader stored =
            StorageHeader::decode(w.hFetch->bytes()->data());
        if ((!unstamped_ok || stored.blockChecksum != 0) &&
            xxhash32(w.dRecv->bytes()->data(), plain) != stored.blockChecksum)
            return;
    }
    out.have = true;
    out.block.plainSize = plain;
    out.block.compressibility = w.dRecv->content.compressibility;
    // The cache keeps its own copy: dRecv is the next request's buffer.
    if (config_.readCache.capacityBytes > 0 && w.dRecv->bytes())
        out.block.plain = std::make_shared<const std::vector<std::uint8_t>>(
            w.dRecv->bytes()->begin(),
            w.dRecv->bytes()->begin() + static_cast<std::ptrdiff_t>(plain));
}

sim::Task
SmartDsServer::verifyReplica(unsigned owner, const net::Message &msg,
                             Probe &, ReadResult &out)
{
    Worker &w = *workers_[owner];
    auto plain = device_->devFunc(w.dSend, w.fetched, w.dRecv,
                                  w.dRecv->capacity(), w.port,
                                  device::EngineOp::Decompress, msg.trace);
    co_await plain.completion;
    acceptPlain(w, plain.size(), false, out);
}

sim::Task
SmartDsServer::verifyShard(unsigned owner, const net::Message &msg,
                           const Probe &p, bool &corrupt)
{
    // Scrub the shard with the checksum engine before use.
    Worker &w = *workers_[owner];
    const device::BufferRef &shard = w.dShards[p.shard];
    auto scrub = device_->devFunc(shard, w.fetched, w.dRecv,
                                  w.dRecv->capacity(), w.port,
                                  device::EngineOp::Checksum, msg.trace);
    co_await scrub.completion;
    corrupt = p.reply.payload.corrupted ||
              (shard->bytes() &&
               scrub.completion.value() != p.reply.payload.ecShardChecksum);
}

sim::Task
SmartDsServer::rebuildStripe(unsigned owner, const net::Message &msg,
                             const Stripe &s, ReadResult &out)
{
    // The RS engine reassembles the stripe in HBM (shard i of the gather
    // landed in buffer i) and the LZ4 engine decompresses it.
    Worker &w = *workers_[owner];
    w.stripe.clear();
    for (std::size_t i = 0; i < s.index.size(); ++i)
        w.stripe.emplace_back(s.index[i], w.dShards[i]);
    auto decoded = device_->ecDecode(w.stripe, s.bytes, w.dSend, w.port,
                                     config_.ec.dataShards,
                                     config_.ec.parityShards, msg.trace);
    co_await decoded.completion;
    auto plain = device_->devFunc(w.dSend, s.bytes, w.dRecv,
                                  w.dRecv->capacity(), w.port,
                                  device::EngineOp::Decompress, msg.trace);
    co_await plain.completion;
    acceptPlain(w, plain.size(), true, out);
}

sim::Task
SmartDsServer::decompress(const net::Message &, Bytes, Bytes)
{
    co_return;
}

sim::Task
SmartDsServer::cacheHit(unsigned owner, const net::Message &,
                        const HotBlockCache::Entry &block)
{
    // One device-DRAM read (HBM placement) or one request's host cost —
    // no fetch round trip, no RS decode, no decompression.
    Worker &w = *workers_[owner];
    if (cacheFlow_) {
        sim::Completion cache_read(sim_);
        cacheFlow_->transfer(block.plainSize, [cache_read]() mutable {
            cache_read.complete(0);
        });
        co_await cache_read;
    } else {
        co_await cores_.executeAsync(calibration::smartdsHostRequestCost);
    }
    if (w.dRecv->bytes() && block.plain)
        std::copy(block.plain->begin(), block.plain->end(),
                  w.dRecv->bytes()->begin());
    w.dRecv->content = device::BufferContent{};
    w.dRecv->content.size = block.plainSize;
    w.dRecv->content.compressibility = block.compressibility;
}

sim::Task
SmartDsServer::toClient(unsigned owner, net::Message reply)
{
    // A read reply's payload is the plaintext in dRecv.
    Worker &w = *workers_[owner];
    device::BufferRef payload = reply.payload.size ? w.dRecv : nullptr;
    device_->connect(w.replyQp, reply.dst, reply.dstQp);
    auto sent = device_->mixedSend(w.replyQp, w.hSend,
                                   StorageHeader::wireSize, payload,
                                   reply.payload.size, reply.kind, reply.tag,
                                   reply.issueTick, reply.trace);
    co_await sent.completion;
}

} // namespace smartds::middletier
