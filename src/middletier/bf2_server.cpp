#include "middletier/bf2_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "middletier/protocol.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

namespace {

/**
 * BF2's software path is SmartDS-like (headers only, no payload touch),
 * but runs on wimpy Arm cores.
 */
// simlint: allow(tick-float): a compile-time product of calibration
// constants; every build computes the same cost
constexpr Tick armRequestCost = static_cast<Tick>(
    static_cast<double>(calibration::smartdsHostRequestCost) *
    calibration::bf2ArmSlowdown);

} // namespace

Bf2Server::Bf2Server(net::Fabric &fabric, ServerConfig config, unsigned ports)
    : PerRequestServer(fabric, std::move(config)),
      devMemory_(sim_, "bf2.dram", calibration::bf2DeviceMemoryBandwidth),
      arm_(sim_, "bf2.arm",
           std::min(config_.cores, calibration::bf2ArmCores))
{
    for (unsigned i = 0; i < ports; ++i) {
        auto *port =
            fabric.createPort("bf2.p" + std::to_string(i));
        port->onReceive([this, i](net::Message &&msg) {
            // Acks are consumed on arrival; everything else — requests
            // and fetched blocks — is DMA-written into device DRAM before
            // the Arm cores see it.
            if (msg.kind == net::MessageKind::WriteReplicaAck) {
                dispatch(i, std::move(msg));
                return;
            }
            const Bytes bytes = msg.wireBytes();
            fromPorts_.push(Inbound{i, std::move(msg)});
            rxWrite_->transfer(bytes, [this]() {
                Inbound in = fromPorts_.pop();
                dispatch(in.port, std::move(in.msg));
            });
        });
        ports_.push_back(port);
    }
    rxWrite_ = devMemory_.createFlow("bf2.rx-write");
    engineRead_ = devMemory_.createFlow("bf2.engine-read");
    engineWrite_ = devMemory_.createFlow("bf2.engine-write");
    txRead_ = devMemory_.createFlow("bf2.tx-read");
    engine_ = std::make_unique<sim::BandwidthServer>(
        sim_, "bf2.engine", calibration::bf2EngineBandwidth,
        calibration::bf2EngineBlockLatency);
}

net::NodeId
Bf2Server::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port < ports_.size(), "BF2 port index out of range");
    return ports_[port]->id();
}

void
Bf2Server::addUsageProbes(UsageProbes &probes)
{
    // BF2 touches neither host memory nor host PCIe; its own device DRAM
    // traffic is reported under dev.* so benchmarks can show the 3.5x
    // device-memory amplification of Section 3.4.
    probes.add("mem.read", []() { return 0.0; });
    probes.add("mem.write", []() { return 0.0; });
    probes.add("dev.mem.read", [this]() {
        return engineRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("dev.mem.write", [this]() {
        return rxWrite_->deliveredBytes() + engineWrite_->deliveredBytes();
    });
}

sim::Task
Bf2Server::parse(const net::Message &req)
{
    return parseOn(arm_, armRequestCost, req);
}

sim::Task
Bf2Server::compress(WriteJob &w)
{
    // The off-path engine is modelled by size alone: the corpus ratio
    // sets the compressed size and no bytes travel with the block.
    w.compressed = ratioBytes(w.req.payload);
    const Tick start = sim_.now();
    co_await onEngine(w.req.payload.size, w.req.payload.size, w.compressed);
    traceSpan(w.req, trace::Stage::Engine, start);
}

sim::Task
Bf2Server::ecEncode(WriteJob &w)
{
    // BF2 runs erasure coding on the same off-path accelerator complex:
    // read the compressed stripe from DRAM, RS-encode, write k + m
    // shards back — more pressure on the already-narrow device DRAM.
    const Tick start = sim_.now();
    co_await sim::transferAsync(sim_, *engineRead_, w.compressed);
    co_await sim::transferAsync(sim_, *engine_, w.compressed);
    w.shards = encodeShards(w.req.tag, w.block());
    co_await sim::transferAsync(sim_, *engineWrite_,
                                w.shards.front().size * w.shards.size());
    traceSpan(w.req, trace::Stage::EcEncode, start);
}

sim::Task
Bf2Server::decompress(const net::Message &req, Bytes in, Bytes out)
{
    // Every byte crosses the narrow on-card DRAM both ways.
    const Tick start = sim_.now();
    co_await onEngine(in, out, out);
    traceSpan(req, trace::Stage::Engine, start);
}

sim::Task
Bf2Server::rsDecode(const net::Message &req, Bytes in, Bytes stripe)
{
    // k shards from DRAM, the rebuilt stripe back.
    const Tick start = sim_.now();
    co_await onEngine(in, stripe, stripe);
    traceSpan(req, trace::Stage::EcDecode, start);
}

sim::Task
Bf2Server::cacheHit(unsigned, const net::Message &,
                    const HotBlockCache::Entry &)
{
    // Hot-block cache in device DRAM: a hit costs one DRAM read of the
    // plain bytes — the reply's own TX read — and no fabric fetch or
    // engine trip.
    co_return;
}

void
Bf2Server::toStorage(unsigned port, unsigned lane, net::Message &&msg,
                     bool)
{
    // The TX path reads what it sends from device DRAM — a replica's
    // block (each send re-reads it: the 3.5x-traffic bottleneck of
    // Section 3.4) or a fetch's header — and a request's sends stripe
    // over the ports.
    const Bytes bytes = msg.kind == net::MessageKind::WriteReplica
                            ? msg.payload.size
                            : StorageHeader::wireSize;
    toStorage_.push(
        Outbound{ports_[(port + lane) % ports_.size()], std::move(msg)});
    txRead_->transfer(bytes, [this]() {
        Outbound out = toStorage_.pop();
        out.port->send(std::move(out.msg));
    });
}

sim::Task
Bf2Server::toClient(unsigned port, net::Message reply)
{
    const Bytes bytes = reply.kind == net::MessageKind::ReadReply
                            ? reply.payload.size
                            : StorageHeader::wireSize;
    co_await sim::transferAsync(sim_, *txRead_, bytes);
    ports_[port]->send(std::move(reply));
}

sim::Task
Bf2Server::onEngine(Bytes in, Bytes work, Bytes out)
{
    co_await sim::transferAsync(sim_, *engineRead_, in);
    co_await sim::transferAsync(sim_, *engine_, work);
    co_await sim::transferAsync(sim_, *engineWrite_, out);
}

} // namespace smartds::middletier
