#include "storage/storage_server.h"

#include <utility>

#include "common/logging.h"

namespace smartds::storage {

StorageServer::StorageServer(net::Fabric &fabric, const std::string &name)
    : StorageServer(fabric, name, Config{})
{
}

StorageServer::StorageServer(net::Fabric &fabric, const std::string &name,
                             Config config)
    : fabric_(fabric), config_(config),
      port_(fabric.createPort(name + ".port")),
      disk_(fabric.simulator(), name + ".disk", config.ingestBandwidth,
            calibration::storageAppendLatency)
{
    port_->onReceive(
        [this](net::Message &&msg) { handle(std::move(msg)); });
}

void
StorageServer::handle(net::Message &&msg)
{
    switch (msg.kind) {
      case net::MessageKind::WriteReplica:
        handleReplica(std::move(msg));
        break;
      case net::MessageKind::ReadFetch:
        handleFetch(std::move(msg));
        break;
      default:
        panic("storage server received unexpected message kind %u",
              static_cast<unsigned>(msg.kind));
    }
}

void
StorageServer::handleReplica(net::Message &&msg)
{
    // A crashed node drops the message on the floor: no append, no ack.
    if (faults_ && faults_->crashed()) {
        faults_->noteDropped();
        return;
    }
    // Append to disk (bandwidth + NVMe latency), then acknowledge. A
    // bandwidth-throttled node drains the block proportionally slower; a
    // latency-degraded node pays extra fixed latency on top.
    const Bytes block = msg.payload.size;
    const Bytes charged = faults_ ? faults_->throttledBytes(block) : block;
    const Tick extra =
        faults_
            ? faults_->extraAppendLatency(calibration::storageAppendLatency)
            : 0;
    if (fabric_.tracer() && msg.trace)
        msg.trace.mark = fabric_.simulator().now(); // Storage span start
    diskOps_.push(DiskOp{parked().park(std::move(msg)), false, extra});
    disk_.transfer(charged, [this]() { diskDone(); });
}

void
StorageServer::diskDone()
{
    const DiskOp op = diskOps_.pop();
    if (op.fetch) {
        finishFetch(parked().take(op.ticket));
    } else if (op.extra > 0) {
        // The request stays parked while it waits out the extra latency.
        const std::uint32_t ticket = op.ticket;
        fabric_.simulator().schedule(
            op.extra,
            [this, ticket]() { finishReplica(parked().take(ticket)); },
            sim::EventTag::Storage);
    } else {
        finishReplica(parked().take(op.ticket));
    }
}

void
StorageServer::finishReplica(net::Message &&msg)
{
    // Crash while the append was in flight: the block never made it to
    // disk and the ack never leaves.
    if (faults_ && faults_->crashed()) {
        faults_->noteDropped();
        return;
    }
    ++blocksStored_;
    bytesStored_ += msg.payload.size;

    net::Payload stored = msg.payload;
    if (faults_ && faults_->corruptBlock()) {
        stored.corrupted = true;
        if (stored.data && !stored.data->empty()) {
            auto flipped =
                std::make_shared<std::vector<std::uint8_t>>(*stored.data);
            const std::size_t bit =
                faults_->corruptBitIndex(flipped->size() * 8);
            (*flipped)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            stored.data = std::move(flipped);
        }
        if (!config_.functionalStore)
            corruptTags_.insert(msg.tag);
    }
    if (config_.functionalStore) {
        store_[msg.tag] = std::move(stored);
        if (msg.headerData)
            headers_[msg.tag] = msg.headerData;
    }

    trace::Tracer *tracer = fabric_.tracer();
    if (tracer && msg.trace && msg.trace.mark != 0) {
        tracer->record(msg.trace, trace::Stage::Storage, msg.trace.mark,
                       fabric_.simulator().now());
        msg.trace.mark = 0;
    }

    // Gray failure: the block is durable but the acknowledgement is lost;
    // the middle tier times out and re-replicates elsewhere.
    if (faults_ && faults_->dropAck())
        return;

    net::Message ack;
    ack.dst = msg.src;
    ack.dstQp = msg.srcQp;
    ack.srcQp = msg.dstQp;
    ack.kind = net::MessageKind::WriteReplicaAck;
    ack.headerBytes = calibration::storageHeaderBytes;
    ack.tag = msg.tag;
    ack.issueTick = msg.issueTick;
    ack.trace = msg.trace;
    port_->send(std::move(ack));
}

void
StorageServer::handleFetch(net::Message &&msg)
{
    // A crashed node never replies; the middle tier's fetch timeout moves
    // the read to another replica.
    if (faults_ && faults_->crashed()) {
        faults_->noteDropped();
        return;
    }
    // Disk read: charge the block transfer plus the access latency, then
    // return the stored (compressed) block.
    net::Payload payload;
    if (config_.functionalStore) {
        const auto it = store_.find(msg.tag);
        if (it == store_.end()) {
            // The block is not here — e.g. this node joined the chunk's
            // replica set after a failure. Reply with a marked-bad stub so
            // the reader fails over instead of waiting out a timeout.
            payload.size = 1;
            payload.corrupted = true;
            payload.originalSize = msg.payload.originalSize;
        } else {
            payload = it->second;
        }
    } else {
        // Timing-only mode: synthesise a block of the size the request
        // hints at (compressed size, or original size x ratio).
        const Bytes original = msg.payload.originalSize
                                   ? msg.payload.originalSize
                                   : calibration::storageBlockBytes;
        const double ratio = msg.payload.compressibility > 0.0
                                 ? msg.payload.compressibility
                                 : 0.55;
        payload.size = msg.payload.size
                           ? msg.payload.size
                           : static_cast<Bytes>(
                                 static_cast<double>(original) * ratio);
        // EC fetch with no explicit size hint (SmartDS fetches are
        // header-only): synthesise one shard of the hinted stripe.
        if (msg.payload.size == 0 && msg.payload.ecK > 0) {
            const Bytes stripe = msg.payload.ecStripeBytes
                                     ? msg.payload.ecStripeBytes
                                     : payload.size;
            payload.size =
                (stripe + msg.payload.ecK - 1) / msg.payload.ecK;
        }
        if (payload.size == 0)
            payload.size = 1;
        payload.compressibility = ratio;
        payload.compressed = true;
        payload.originalSize = original;
        // Echo the EC shard geometry the reader hinted at, so timing-mode
        // EC reads see shard-shaped replies (functional mode returns the
        // stored shard's real geometry instead).
        payload.ecK = msg.payload.ecK;
        payload.ecM = msg.payload.ecM;
        payload.ecShard = msg.payload.ecShard;
        payload.ecStripeBytes = msg.payload.ecStripeBytes;
        if (corruptTags_.count(msg.tag))
            payload.corrupted = true;
    }
    std::shared_ptr<const std::vector<std::uint8_t>> header;
    if (const auto hit = headers_.find(msg.tag); hit != headers_.end())
        header = hit->second;
    const Bytes block = payload.size;
    if (fabric_.tracer() && msg.trace)
        msg.trace.mark = fabric_.simulator().now(); // Storage span start
    msg.payload = std::move(payload);
    msg.headerData = std::move(header);
    diskOps_.push(DiskOp{parked().park(std::move(msg)), true, 0});
    disk_.transfer(block, [this]() { diskDone(); });
}

void
StorageServer::finishFetch(net::Message &&msg)
{
    // Crash while the disk read was in flight: no reply.
    if (faults_ && faults_->crashed()) {
        faults_->noteDropped();
        return;
    }
    trace::Tracer *tracer = fabric_.tracer();
    if (tracer && msg.trace && msg.trace.mark != 0) {
        tracer->record(msg.trace, trace::Stage::Storage, msg.trace.mark,
                       fabric_.simulator().now());
        msg.trace.mark = 0;
    }
    net::Message reply;
    reply.dst = msg.src;
    reply.dstQp = msg.srcQp;
    reply.srcQp = msg.dstQp;
    reply.kind = net::MessageKind::ReadFetchReply;
    reply.headerBytes = calibration::storageHeaderBytes;
    reply.headerData = std::move(msg.headerData);
    reply.payload = std::move(msg.payload);
    reply.tag = msg.tag;
    reply.issueTick = msg.issueTick;
    reply.trace = msg.trace;
    port_->send(std::move(reply));
}

const net::Payload *
StorageServer::storedBlock(std::uint64_t tag) const
{
    const auto it = store_.find(tag);
    return it == store_.end() ? nullptr : &it->second;
}

} // namespace smartds::storage
