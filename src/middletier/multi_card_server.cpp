#include "middletier/multi_card_server.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/random.h"

namespace smartds::middletier {

MultiCardSmartDsServer::MultiCardSmartDsServer(net::Fabric &fabric,
                                               mem::MemorySystem &memory,
                                               ServerConfig config,
                                               MultiCardConfig multi)
    : multi_(multi)
{
    SMARTDS_CHECK(multi.cards >= 1, "need at least one card");

    // A root port adds no base latency of its own: the card's link
    // carries the end-to-end idle DMA latency.
    pcie::PcieLink::Config root;
    root.baseLatency = 0;
    constexpr unsigned per_switch = calibration::smartdsCardsPerSwitch;
    const unsigned n_switches = (multi.cards + per_switch - 1) / per_switch;
    for (unsigned s = 0; s < n_switches; ++s) {
        switchRoots_.push_back(std::make_unique<pcie::PcieLink>(
            fabric.simulator(), "pcie-switch" + std::to_string(s) + ".root",
            root));
    }

    // Every card draws from its own RNG stream: card 0 keeps the
    // configured seed and each later card takes the next draw of a
    // generator seeded with it. Cards seeded alike would start their k-th
    // reads' probes at the same replica and put their k-th EC stripes on
    // the same nodes.
    Rng card_seeds(config.seed);
    for (unsigned c = 0; c < multi.cards; ++c) {
        if (c > 0)
            config.seed = card_seeds();
        auto card_config = multi.card;
        auto &switch_root = *switchRoots_[c / per_switch];
        // Each card's header DMA additionally crosses its switch's
        // shared root port.
        card_config.device.h2dTail = {&switch_root.h2d()};
        card_config.device.d2hTail = {&switch_root.d2h()};
        cards_.push_back(std::make_unique<SmartDsServer>(
            fabric, memory, config, card_config));
    }
}

unsigned
MultiCardSmartDsServer::frontPorts() const
{
    return static_cast<unsigned>(cards_.size()) * multi_.card.ports;
}

net::NodeId
MultiCardSmartDsServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port < frontPorts(), "port index out of range");
    return cards_[port / multi_.card.ports]->frontNode(
        port % multi_.card.ports);
}

net::QpId
MultiCardSmartDsServer::frontQp(unsigned port) const
{
    SMARTDS_CHECK(port < frontPorts(), "port index out of range");
    return cards_[port / multi_.card.ports]->frontQp(
        port % multi_.card.ports);
}

void
MultiCardSmartDsServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        double bytes = 0.0;
        for (auto &card : cards_) {
            auto *f = card->smartNic().headerReadFlow();
            bytes += f ? f->deliveredBytes() : 0.0;
        }
        return bytes;
    });
    probes.add("mem.write", [this]() {
        double bytes = 0.0;
        for (auto &card : cards_) {
            auto *f = card->smartNic().headerWriteFlow();
            bytes += f ? f->deliveredBytes() : 0.0;
        }
        return bytes;
    });
    probes.add("pcie.smartds.h2d", [this]() {
        double bytes = 0.0;
        for (auto &card : cards_)
            bytes += static_cast<double>(
                card->smartNic().pcieLink().h2d().totalBytes());
        return bytes;
    });
    probes.add("pcie.smartds.d2h", [this]() {
        double bytes = 0.0;
        for (auto &card : cards_)
            bytes += static_cast<double>(
                card->smartNic().pcieLink().d2h().totalBytes());
        return bytes;
    });
    for (std::size_t s = 0; s < switchRoots_.size(); ++s) {
        auto *root = switchRoots_[s].get();
        probes.add("pcie.switch" + std::to_string(s) + ".root",
                   [root]() {
                       return static_cast<double>(root->h2d().totalBytes() +
                                                  root->d2h().totalBytes());
                   });
    }
}

FailoverStats
MultiCardSmartDsServer::failoverStats() const
{
    FailoverStats total;
    for (const auto &card : cards_)
        total += card->failoverStats();
    return total;
}

HotBlockCache::Stats
MultiCardSmartDsServer::readCacheStats() const
{
    HotBlockCache::Stats total;
    for (const auto &card : cards_)
        total += card->readCacheStats();
    return total;
}

void
MultiCardSmartDsServer::setMaintenanceService(MaintenanceService *m)
{
    for (auto &card : cards_)
        card->setMaintenanceService(m);
}

} // namespace smartds::middletier
