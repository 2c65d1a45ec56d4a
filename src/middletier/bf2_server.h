/**
 * @file
 * SoC-based SmartNIC middle-tier server ("BF2", paper Figure 1d,
 * Section 3.4).
 *
 * A BlueField-2-like device serves requests entirely on-card: messages
 * land in the SmartNIC's DRAM, wimpy Arm cores parse headers, and an
 * off-path compression engine (~40 Gbps total) transforms payloads. The
 * host is never involved — which gives the lowest unloaded latency — but
 * the engine and the narrow device DRAM cap throughput, and Arm-core
 * queueing inflates the tails once more than one core's worth of load is
 * offered (Figure 7).
 */

#ifndef SMARTDS_MIDDLETIER_BF2_SERVER_H_
#define SMARTDS_MIDDLETIER_BF2_SERVER_H_

#include <memory>
#include <vector>

#include "host/core_pool.h"
#include "middletier/per_request_server.h"
#include "net/fabric.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/parking.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The "BF2" baseline: SoC SmartNIC with on-card Arm cores + engine. */
class Bf2Server : public PerRequestServer
{
  public:
    /** @p ports: networking ports to use (BF2: 2x100GbE). */
    Bf2Server(net::Fabric &fabric, ServerConfig config,
              unsigned ports = calibration::bf2Ports);

    net::NodeId frontNode(unsigned port = 0) const override;
    unsigned
    frontPorts() const override
    {
        return static_cast<unsigned>(ports_.size());
    }
    Design design() const override { return Design::Bf2; }
    void addUsageProbes(UsageProbes &probes) override;

    host::CorePool &armCores() { return arm_; }

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

    /** Engine trip: @p in bytes read from DRAM, @p out bytes written. */
    sim::Task onEngine(Bytes in, Bytes work, Bytes out);

    /** A received message waiting for its RX write into DRAM. */
    struct Inbound
    {
        unsigned port = 0;
        net::Message msg;
    };

    /** A storage-bound message waiting for its TX read from DRAM. */
    struct Outbound
    {
        net::Port *port = nullptr;
        net::Message msg;
    };

    std::vector<net::Port *> ports_;
    sim::FairShareResource devMemory_;
    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *engineRead_;
    sim::FairShareResource::Flow *engineWrite_;
    sim::FairShareResource::Flow *txRead_;
    std::unique_ptr<sim::BandwidthServer> engine_;
    host::CorePool arm_;
    /**
     * Messages inside rxWrite_ and toStorage() messages inside txRead_,
     * oldest first: a flow's transfers complete in submission order, so
     * each completion pops its ring's front.
     */
    sim::Ring<Inbound> fromPorts_;
    sim::Ring<Outbound> toStorage_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_BF2_SERVER_H_
