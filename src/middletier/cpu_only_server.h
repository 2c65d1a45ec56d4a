/**
 * @file
 * CPU-only middle-tier server (paper Figure 1a, Section 3.1).
 *
 * Every message lands in host memory in full via the NIC's DMA; host
 * cores parse headers and run LZ4 in software; the compressed block is
 * replicated to storage servers through the same NIC. Compression
 * throughput per core and SMT pairing follow the paper's measurements, so
 * this design needs nearly all 48 logical cores to approach line rate
 * while saturating host memory and the NIC's PCIe link (Figures 7-8).
 */

#ifndef SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_
#define SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_

#include <memory>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/per_request_server.h"
#include "nic/rdma_nic.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The traditional software middle tier. */
class CpuOnlyServer : public PerRequestServer
{
  public:
    CpuOnlyServer(net::Fabric &fabric, mem::MemorySystem &memory,
                  ServerConfig config);

    net::NodeId frontNode(unsigned port = 0) const override;
    Design design() const override { return Design::CpuOnly; }
    void addUsageProbes(UsageProbes &probes) override;
    host::CorePool *servingCores() override { return &cores_; }

    nic::RdmaNic &nic() { return *nic_; }
    host::CorePool &cores() { return cores_; }

  private:
    sim::Task parse(const net::Message &req) override;
    sim::Task compress(WriteJob &w) override;
    sim::Task ecEncode(WriteJob &w) override;
    sim::Task decompress(const net::Message &req, Bytes in,
                         Bytes out) override;
    sim::Task rsDecode(const net::Message &req, Bytes in,
                       Bytes stripe) override;
    sim::Task cacheHit(unsigned owner, const net::Message &req,
                       const HotBlockCache::Entry &block) override;
    void toStorage(unsigned port, unsigned lane, net::Message &&msg,
                   bool first) override;
    sim::Task toClient(unsigned port, net::Message reply) override;

    /**
     * Hold a core for @p cpu while streaming @p in bytes from and @p out
     * bytes to host memory; the step ends when all three are done.
     */
    sim::Task onCore(Tick cpu, Bytes in, Bytes out);
    /** The streaming half of onCore(), on a core already held. */
    sim::Task stream(Tick cpu, Bytes in, Bytes out);

    mem::MemorySystem &memory_;
    std::unique_ptr<nic::RdmaNic> nic_;
    host::CorePool cores_;
    /** Software compression time for one block on one configured core. */
    Tick compressTicksPerByte_;

    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *compressRead_;
    sim::FairShareResource::Flow *compressWrite_;
    sim::FairShareResource::Flow *txRead_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_
