/**
 * @file
 * Multi-SmartNIC middle-tier server (paper Section 5.5).
 *
 * One 4U host carries several SmartDS cards behind PCIe switches (the
 * testbed has two 1x4 gen3 x16 switches). Because only headers cross to
 * the host, the cards share host memory and the per-switch root ports
 * with enormous headroom; this class wires N complete SmartDsServer
 * instances into one host (shared MemorySystem, shared switch roots) and
 * presents them as a single middle tier, so the linear scale-up of
 * Section 5.5 can be *simulated* rather than merely extrapolated.
 */

#ifndef SMARTDS_MIDDLETIER_MULTI_CARD_SERVER_H_
#define SMARTDS_MIDDLETIER_MULTI_CARD_SERVER_H_

#include <memory>
#include <vector>

#include "mem/memory_system.h"
#include "middletier/server_base.h"
#include "middletier/smartds_server.h"
#include "pcie/pcie.h"

namespace smartds::middletier {

/** A host with multiple SmartDS cards behind shared PCIe switches. */
class MultiCardSmartDsServer : public MiddleTierServer
{
  public:
    struct MultiCardConfig
    {
        /** Number of SmartDS cards. */
        unsigned cards = 2;
        /** Per-card configuration (ports, workers, ...). */
        SmartDsServer::SmartDsConfig card;
    };

    MultiCardSmartDsServer(net::Fabric &fabric, mem::MemorySystem &memory,
                           ServerConfig config, MultiCardConfig multi);

    net::NodeId frontNode(unsigned port = 0) const override;
    net::QpId frontQp(unsigned port = 0) const override;
    unsigned frontPorts() const override;
    Design design() const override { return Design::SmartDs; }
    void addUsageProbes(UsageProbes &probes) override;

    unsigned cards() const { return static_cast<unsigned>(cards_.size()); }

    /** Failure-handling counters summed over all cards. */
    FailoverStats failoverStats() const override;

    /** Read-cache counters summed over all cards. */
    HotBlockCache::Stats readCacheStats() const override;

    /** Every card hands abandoned replicas to the same repair queue. */
    void setMaintenanceService(MaintenanceService *m) override;

  private:
    MultiCardConfig multi_;
    /** Each PCIe switch's root port, shared by the cards behind it. */
    std::vector<std::unique_ptr<pcie::PcieLink>> switchRoots_;
    std::vector<std::unique_ptr<SmartDsServer>> cards_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_MULTI_CARD_SERVER_H_
