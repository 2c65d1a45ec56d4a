#include "middletier/accelerator_server.h"

#include <utility>

#include "common/check.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

AcceleratorServer::AcceleratorServer(net::Fabric &fabric,
                                     mem::MemorySystem &memory,
                                     ServerConfig config, bool ddio)
    : PerRequestServer(fabric, std::move(config)), memory_(memory),
      ddio_(ddio),
      nic_(std::make_unique<nic::RdmaNic>(fabric, "acc.nic", &memory)),
      cores_(sim_, "acc.cores", config_.cores)
{
    fpgaPcie_ = std::make_unique<pcie::PcieLink>(sim_, "acc.fpga-pcie");
    pcie::DmaEngine::Config fpga_dma;
    fpga_dma.readWindowBytes = calibration::deviceDmaWindowBytes;
    fpga_dma.writeWindowBytes = calibration::deviceDmaWindowBytes;
    fpgaDma_ = std::make_unique<pcie::DmaEngine>(
        sim_, "acc.fpga-dma", &memory,
        std::vector<sim::BandwidthServer *>{&fpgaPcie_->h2d()},
        std::vector<sim::BandwidthServer *>{&fpgaPcie_->d2h()}, fpga_dma);
    // The U280 engine: up to 100 Gbps, behind an FPGA pipeline.
    engine_ = std::make_unique<sim::BandwidthServer>(
        sim_, "acc.engine", calibration::smartdsEnginePerPort,
        calibration::fpgaEngineBlockLatency);

    rxWrite_ = memory.createFlow("acc.rx-write");
    fpgaRead_ = memory.createFlow("acc.fpga-read");
    fpgaWrite_ = memory.createFlow("acc.fpga-write");
    txRead_ = memory.createFlow("acc.tx-read");

    nic_->setRxDmaOptions({rxWrite_, false});
    nic_->onHostReceive(
        [this](net::Message &&msg) { dispatch(0, std::move(msg)); });
}

net::NodeId
AcceleratorServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port == 0, "Acc server has a single NIC port");
    return nic_->nodeId();
}

void
AcceleratorServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        return fpgaRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("mem.write", [this]() {
        return rxWrite_->deliveredBytes() + fpgaWrite_->deliveredBytes();
    });
    probes.add("pcie.nic.h2d", [this]() {
        return static_cast<double>(nic_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.nic.d2h", [this]() {
        return static_cast<double>(nic_->pcieLink().d2h().totalBytes());
    });
    probes.add("pcie.fpga.h2d", [this]() {
        return static_cast<double>(fpgaPcie_->h2d().totalBytes());
    });
    probes.add("pcie.fpga.d2h", [this]() {
        return static_cast<double>(fpgaPcie_->d2h().totalBytes());
    });
}

sim::Task
AcceleratorServer::parse(const net::Message &req)
{
    // The host still fronts every request; the card only transforms.
    return parseOn(cores_, calibration::hostHeaderParseCost, req);
}

sim::Task
AcceleratorServer::compress(WriteJob &w)
{
    compressBlock(w);
    // Doorbell + descriptor fetch before the card can start its DMA.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);

    // FPGA phase: DMA payload in, compress, DMA result back. With DDIO
    // the payload was just DMA-written by the NIC and is still
    // LLC-resident, so the FPGA's read needs no DRAM bandwidth; without
    // DDIO it reads DRAM and stalls on loaded latency. The result write
    // allocates in LLC but spills (the intermediate buffer working set is
    // far larger than the DDIO ways), charging DRAM write bandwidth.
    // DDIO hits require the NIC-written lines to still be LLC-resident;
    // an antagonist loading the memory system also thrashes the cache,
    // so the hit rate collapses with utilisation (Figure 9's Acc curve).
    const double u = memory_.utilization();
    const bool ddio_hit = ddio_ && !rng_.chance(u * u);
    const Tick start = sim_.now();
    co_await toCard(w.req.payload.size,
                    {ddio_hit ? nullptr : fpgaRead_, !ddio_hit},
                    w.req.payload.size);
    co_await fromCard(w.compressed);
    traceSpan(w.req, trace::Stage::Engine, start);
}

sim::Task
AcceleratorServer::ecEncode(WriteJob &w)
{
    // The FPGA exposes the RS engine next to the compressor, so erasure
    // coding costs another DMA round trip: compressed stripe in, k + m
    // shards out.
    const Tick start = sim_.now();
    co_await toCard(w.compressed, {fpgaRead_, false}, w.compressed);
    w.shards = encodeShards(w.req.tag, w.block());
    co_await fromCard(w.shards.front().size * w.shards.size());
    traceSpan(w.req, trace::Stage::EcEncode, start);
}

sim::Task
AcceleratorServer::computeDone(const net::Message &)
{
    // The card's completion crosses PCIe before software observes it; a
    // core then handles it (and posts the sends, or the reply).
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    co_await cores_.executeAsync(calibration::hostHeaderParseCost);
}

sim::Task
AcceleratorServer::decompress(const net::Message &req, Bytes in, Bytes out)
{
    // Doorbell + descriptor fetch, then the FPGA decompress round trip —
    // stored block in, plain block out, costing PCIe both ways like the
    // write path — and the completion, as on writes.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    const Tick start = sim_.now();
    co_await toCard(in, {fpgaRead_, true}, out);
    co_await fromCard(out);
    traceSpan(req, trace::Stage::Engine, start);
    co_await computeDone(req);
}

sim::Task
AcceleratorServer::rsDecode(const net::Message &req, Bytes in, Bytes stripe)
{
    // RS decode trip through the card: k shards DMA in, the engine runs
    // the GF(256) math, the stripe DMAs back out.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    const Tick start = sim_.now();
    co_await toCard(in, {fpgaRead_, false}, stripe);
    co_await fromCard(stripe);
    traceSpan(req, trace::Stage::EcDecode, start);
}

sim::Task
AcceleratorServer::cacheHit(unsigned, const net::Message &,
                            const HotBlockCache::Entry &)
{
    // Hot-block cache in host DRAM: the hit skips the storage fetch and
    // the FPGA trip entirely.
    co_await cores_.executeAsync(calibration::hostPerRequestSoftwareCost);
}

void
AcceleratorServer::toStorage(unsigned, unsigned, net::Message &&msg,
                             bool first)
{
    // With DDIO the FPGA's result write is still LLC-resident for the
    // NIC's reads; without DDIO the first send fetches from DRAM.
    const bool from_dram = first && !ddio_;
    nic_->setTxDmaOptions({from_dram ? txRead_ : nullptr, from_dram});
    nic_->sendFromHost(std::move(msg));
}

sim::Task
AcceleratorServer::toClient(unsigned, net::Message reply)
{
    // A read reply's payload is DMA-read from host memory.
    const bool data = reply.kind == net::MessageKind::ReadReply;
    nic_->setTxDmaOptions({data ? txRead_ : nullptr, data});
    nic_->sendFromHost(std::move(reply));
    co_return;
}

sim::Task
AcceleratorServer::toCard(Bytes in, pcie::DmaEngine::Options opts,
                          Bytes work)
{
    sim::Completion fetched(sim_);
    fpgaDma_->read(in, opts, [fetched](Tick) mutable { fetched.complete(0); });
    co_await fetched;
    co_await sim::transferAsync(sim_, *engine_, work);
}

sim::Task
AcceleratorServer::fromCard(Bytes out)
{
    sim::Completion written(sim_);
    fpgaDma_->write(out, {fpgaWrite_, false},
                    [written](Tick) mutable { written.complete(0); });
    co_await written;
}

} // namespace smartds::middletier
