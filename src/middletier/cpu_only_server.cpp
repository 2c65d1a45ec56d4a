#include "middletier/cpu_only_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "lz4/lz4.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

CpuOnlyServer::CpuOnlyServer(net::Fabric &fabric, mem::MemorySystem &memory,
                             ServerConfig config)
    : PerRequestServer(fabric, std::move(config)), memory_(memory),
      nic_(std::make_unique<nic::RdmaNic>(fabric, "cpuonly.nic", &memory)),
      cores_(sim_, "cpuonly.cores", config_.cores)
{
    const BytesPerSecond per_core =
        host::perCoreCompressionRate(config_.cores) *
        lz4::effortSpeedFactor(config_.effort);
    compressTicksPerByte_ = transferTicks(1, per_core);

    rxWrite_ = memory.createFlow("cpuonly.rx-write");
    compressRead_ = memory.createFlow("cpuonly.compress-read");
    compressWrite_ = memory.createFlow("cpuonly.compress-write");
    txRead_ = memory.createFlow("cpuonly.tx-read");

    // Received messages DMA into host memory (posted writes).
    nic_->setRxDmaOptions({rxWrite_, false});
    nic_->onHostReceive(
        [this](net::Message &&msg) { dispatch(0, std::move(msg)); });
}

net::NodeId
CpuOnlyServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port == 0, "CPU-only server has a single NIC port");
    return nic_->nodeId();
}

void
CpuOnlyServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        return compressRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("mem.write", [this]() {
        return rxWrite_->deliveredBytes() + compressWrite_->deliveredBytes();
    });
    probes.add("pcie.nic.h2d", [this]() {
        return static_cast<double>(nic_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.nic.d2h", [this]() {
        return static_cast<double>(nic_->pcieLink().d2h().totalBytes());
    });
}

sim::Task
CpuOnlyServer::parse(const net::Message &req)
{
    // A write's header parse is part of its compress phase: the host
    // parses, places and compresses in one per-request software step.
    if (req.kind == net::MessageKind::WriteRequest)
        co_return;
    co_await parseOn(cores_, calibration::hostHeaderParseCost, req);
}

sim::Task
CpuOnlyServer::compress(WriteJob &w)
{
    // The core is held for the software time; concurrently the
    // compression streams the block through host memory (read the input,
    // write the compressed output). The phase ends when both are done.
    // LZ4's software speed depends on content: match-heavy blocks copy,
    // incompressible blocks skip-accelerate, and mixed blocks pay full
    // search cost — scale the calibrated mean rate by compressibility so
    // per-request times (and thus tails) vary the way real blocks do.
    // Software on a busy SMT core also jitters with cache/TLB pressure;
    // hardware engines do not (their pipelines are deterministic), which
    // is one reason the paper's software tails fan out under load.
    const Bytes payload = w.req.payload.size;
    const double content_factor = 0.7 + 0.55 * w.req.payload.compressibility;
    const double smt_jitter = 0.9 + 0.35 * rng_.uniform();
    // A core keeps only hostCoreMlp cache-line misses in flight, so under
    // memory pressure its streaming bandwidth caps at mlp*64/latency and
    // software compression becomes memory-latency-bound (Figure 9).
    const double mem_bound_rate =
        static_cast<double>(calibration::hostCoreMlp) * 64.0 /
        toSeconds(memory_.loadedLatency());
    const double nominal_rate =
        1.0 / toSeconds(compressTicksPerByte_); // bytes/second
    const double effective_rate = std::min(nominal_rate, mem_bound_rate);
    const Tick compress_ticks = transferTicks(
        payload, effective_rate / (content_factor * smt_jitter));
    compressBlock(w);

    const auto depth = static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick start = sim_.now();
    co_await onCore(calibration::hostPerRequestSoftwareCost + compress_ticks,
                    payload, w.compressed);
    traceSpan(w.req, trace::Stage::HostCompute, start, depth);
}

sim::Task
CpuOnlyServer::ecEncode(WriteJob &w)
{
    // The host pays the GF(256) multiply-accumulate work in software: the
    // compressed stripe streams back through the core once for the
    // parity products (NIC designs offload exactly this; Di Girolamo et
    // al.).
    const Tick start = sim_.now();
    co_await cores_.acquire();
    w.shards = encodeShards(w.req.tag, w.block());
    co_await stream(calibration::hostPerRequestSoftwareCost +
                        transferTicks(w.compressed,
                                      calibration::hostEcEncodeRate),
                    w.compressed, w.shards.front().size * w.shards.size());
    cores_.release();
    traceSpan(w.req, trace::Stage::EcEncode, start);
}

sim::Task
CpuOnlyServer::decompress(const net::Message &req, Bytes in, Bytes out)
{
    // Software decompression (7x faster than compression per core).
    const auto depth = static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick start = sim_.now();
    co_await onCore(calibration::hostPerRequestSoftwareCost +
                        compressTicksPerByte_ * out /
                            static_cast<Tick>(
                                calibration::lz4DecompressSpeedup),
                    in, out);
    traceSpan(req, trace::Stage::HostCompute, start, depth);
}

sim::Task
CpuOnlyServer::rsDecode(const net::Message &req, Bytes in, Bytes stripe)
{
    // Stream k shards through the core and write the rebuilt stripe.
    const Tick start = sim_.now();
    co_await onCore(calibration::hostPerRequestSoftwareCost +
                        transferTicks(stripe, calibration::hostEcDecodeRate),
                    in, stripe);
    traceSpan(req, trace::Stage::EcDecode, start);
}

sim::Task
CpuOnlyServer::cacheHit(unsigned, const net::Message &,
                        const HotBlockCache::Entry &)
{
    // The plaintext is already in host memory: one request's software
    // cost, then the reply DMA reads it.
    co_await cores_.executeAsync(calibration::hostPerRequestSoftwareCost);
}

void
CpuOnlyServer::toStorage(unsigned, unsigned, net::Message &&msg,
                         bool first)
{
    // The first replica read misses the LLC (the compressed block is
    // fetched once from memory); the remaining sends hit.
    nic_->setTxDmaOptions({first ? txRead_ : nullptr, first});
    nic_->sendFromHost(std::move(msg));
}

sim::Task
CpuOnlyServer::toClient(unsigned, net::Message reply)
{
    // A read reply's payload is DMA-read from host memory.
    const bool data = reply.kind == net::MessageKind::ReadReply;
    nic_->setTxDmaOptions({data ? txRead_ : nullptr, data});
    nic_->sendFromHost(std::move(reply));
    co_return;
}

sim::Task
CpuOnlyServer::onCore(Tick cpu, Bytes in, Bytes out)
{
    co_await cores_.acquire();
    co_await stream(cpu, in, out);
    cores_.release();
}

sim::Task
CpuOnlyServer::stream(Tick cpu, Bytes in, Bytes out)
{
    auto busy = sim::timerAsync(sim_, cpu);
    auto read = sim::transferAsync(sim_, *compressRead_, in);
    auto write = sim::transferAsync(sim_, *compressWrite_, out);
    co_await busy;
    co_await read;
    co_await write;
}

} // namespace smartds::middletier
