#include "nic/rdma_nic.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::nic {

RdmaNic::RdmaNic(net::Fabric &fabric, const std::string &name,
                 mem::MemorySystem *host_memory)
    : fabric_(fabric), port_(fabric.createPort(name + ".port")),
      pcie_(fabric.simulator(), name + ".pcie"),
      dma_(fabric.simulator(), name + ".dma", host_memory,
           {&pcie_.h2d()}, {&pcie_.d2h()},
           // A commodity NIC's streaming windows (Figure 4).
           {.readWindowBytes = calibration::deviceDmaWindowBytes,
            .writeWindowBytes = calibration::deviceDmaWindowBytes})
{
    rxOptions_.stallOnMemory = false; // DMA writes are posted
    port_->onReceive([this](net::Message &&msg) {
        // Land the whole message in host memory before software sees it.
        const Bytes bytes = msg.wireBytes();
        const std::uint32_t ticket = inDma_.park(
            InDma{std::move(msg), nullptr, fabric_.simulator().now()});
        dma_.write(bytes, rxOptions_,
                   [this, ticket](Tick) { landed(ticket); });
    });
}

void
RdmaNic::landed(std::uint32_t ticket)
{
    InDma in = inDma_.take(ticket);
    SMARTDS_CHECK(handler_, "NIC delivered with no host handler");
    trace::Tracer *tracer = fabric_.tracer();
    if (tracer && in.msg.trace) {
        tracer->record(in.msg.trace, trace::Stage::NicDma, in.dmaStart,
                       fabric_.simulator().now());
    }
    handler_(std::move(in.msg));
}

void
RdmaNic::onHostReceive(std::function<void(net::Message &&)> handler)
{
    SMARTDS_CHECK(!handler_, "NIC already has a host receive handler");
    handler_ = std::move(handler);
}

void
RdmaNic::sendFromHost(net::Message &&msg, sim::EventCallback on_sent)
{
    const Bytes bytes = msg.wireBytes();
    const std::uint32_t ticket = inDma_.park(InDma{
        std::move(msg), std::move(on_sent), fabric_.simulator().now()});
    dma_.read(bytes, txOptions_,
              [this, ticket](Tick) { fetched(ticket); });
}

void
RdmaNic::fetched(std::uint32_t ticket)
{
    InDma out = inDma_.take(ticket);
    trace::Tracer *tracer = fabric_.tracer();
    if (tracer && out.msg.trace) {
        tracer->record(out.msg.trace, trace::Stage::NicDma, out.dmaStart,
                       fabric_.simulator().now());
    }
    port_->send(std::move(out.msg), std::move(out.onSent));
}

} // namespace smartds::nic
