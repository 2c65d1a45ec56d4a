/**
 * @file
 * Accelerator-enhanced middle-tier server (paper Figure 1b, Section 3.2).
 *
 * Like CPU-only, every message lands in host memory through the NIC; the
 * host CPU then directs a PCIe-attached FPGA card (Alveo U280) to DMA the
 * payload, compress it at 100 Gbps, and DMA the result back. Compression
 * no longer consumes CPU cores, but the payload crosses PCIe twice more,
 * and — depending on DDIO — host memory read or write bandwidth stays
 * loaded (Figures 7-9).
 */

#ifndef SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_
#define SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_

#include <memory>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/per_request_server.h"
#include "nic/rdma_nic.h"
#include "sim/bandwidth_server.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The "Acc" baseline: NIC + discrete FPGA compression card. */
class AcceleratorServer : public PerRequestServer
{
  public:
    /** @p ddio: whether Intel DDIO is enabled (Figure 8a's w/ vs w/o). */
    AcceleratorServer(net::Fabric &fabric, mem::MemorySystem &memory,
                      ServerConfig config, bool ddio = true);

    net::NodeId frontNode(unsigned port = 0) const override;
    Design design() const override { return Design::Accelerator; }
    void addUsageProbes(UsageProbes &probes) override;

    host::CorePool *servingCores() override { return &cores_; }

    nic::RdmaNic &nic() { return *nic_; }
    host::CorePool &cores() { return cores_; }

  private:
    sim::Task parse(const net::Message &req) override;
    sim::Task compress(WriteJob &w) override;
    sim::Task ecEncode(WriteJob &w) override;
    sim::Task computeDone(const net::Message &req) override;
    sim::Task decompress(const net::Message &req, Bytes in,
                         Bytes out) override;
    sim::Task rsDecode(const net::Message &req, Bytes in,
                       Bytes stripe) override;
    sim::Task cacheHit(unsigned owner, const net::Message &req,
                       const HotBlockCache::Entry &block) override;
    void toStorage(unsigned port, unsigned lane, net::Message &&msg,
                   bool first) override;
    sim::Task toClient(unsigned port, net::Message reply) override;

    /** DMA @p in bytes to the card, then run @p work bytes on the engine. */
    sim::Task toCard(Bytes in, pcie::DmaEngine::Options opts, Bytes work);
    /** DMA @p out result bytes back into host memory. */
    sim::Task fromCard(Bytes out);

    mem::MemorySystem &memory_;
    bool ddio_;
    std::unique_ptr<nic::RdmaNic> nic_;
    std::unique_ptr<pcie::PcieLink> fpgaPcie_;
    std::unique_ptr<pcie::DmaEngine> fpgaDma_;
    std::unique_ptr<sim::BandwidthServer> engine_;
    host::CorePool cores_;

    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *fpgaRead_;
    sim::FairShareResource::Flow *fpgaWrite_;
    sim::FairShareResource::Flow *txRead_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_
