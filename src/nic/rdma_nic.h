/**
 * @file
 * Commodity RDMA NIC model (ConnectX-5-like).
 *
 * The NIC bridges one network port and the host over PCIe: every received
 * message is DMA-written into host memory in full, and every sent message
 * is DMA-read from host memory in full — the property that makes the
 * CPU-only and accelerator-enhanced middle-tier designs PCIe- and
 * memory-bound (paper Sections 3.1 and 3.2).
 */

#ifndef SMARTDS_NIC_RDMA_NIC_H_
#define SMARTDS_NIC_RDMA_NIC_H_

#include <cstdint>
#include <functional>
#include <string>

#include "mem/memory_system.h"
#include "net/fabric.h"
#include "pcie/pcie.h"
#include "sim/parking.h"

namespace smartds::nic {

/** One RDMA NIC: a port plus a DMA engine over its own PCIe link. */
class RdmaNic
{
  public:
    RdmaNic(net::Fabric &fabric, const std::string &name,
            mem::MemorySystem *host_memory);

    /** Node id remote peers address this NIC at. */
    net::NodeId nodeId() const { return port_->id(); }

    /** DMA options for received messages (which memory flow, etc). */
    void setRxDmaOptions(pcie::DmaEngine::Options options)
    {
        rxOptions_ = options;
    }

    /** DMA options for transmitted messages. */
    void setTxDmaOptions(pcie::DmaEngine::Options options)
    {
        txOptions_ = options;
    }

    /**
     * Install the host-side receive handler, called once a received
     * message has fully landed in host memory.
     */
    void onHostReceive(std::function<void(net::Message &&)> handler);

    /**
     * Send @p msg from host memory: DMA-read its bytes over PCIe, then
     * serialise onto the wire. @p on_sent (optional) fires at local send
     * completion.
     */
    void sendFromHost(net::Message &&msg,
                      sim::EventCallback on_sent = nullptr);

    net::Port &port() { return *port_; }
    pcie::PcieLink &pcieLink() { return pcie_; }
    pcie::DmaEngine &dma() { return dma_; }

  private:
    /** A message crossing PCIe (either direction), with its bookkeeping. */
    struct InDma
    {
        net::Message msg;
        sim::EventCallback onSent; ///< tx only
        Tick dmaStart = 0;
    };

    /** Host-memory landing of the received message parked at @p ticket. */
    void landed(std::uint32_t ticket);

    /** DMA read of the outbound message parked at @p ticket is done. */
    void fetched(std::uint32_t ticket);

    net::Fabric &fabric_;
    net::Port *port_;
    pcie::PcieLink pcie_;
    pcie::DmaEngine dma_;
    pcie::DmaEngine::Options rxOptions_;
    pcie::DmaEngine::Options txOptions_;
    std::function<void(net::Message &&)> handler_;
    /**
     * Messages inside dma_. DMA completions may reorder (memory stalls
     * vary, sizes differ), so they are parked by ticket, not in a FIFO.
     */
    sim::SlotTable<InDma> inDma_;
};

} // namespace smartds::nic

#endif // SMARTDS_NIC_RDMA_NIC_H_
