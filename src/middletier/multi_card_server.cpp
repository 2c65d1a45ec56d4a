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
    SMARTDS_CHECK(multi.cardsPerSwitch >= 1, "cards per switch >= 1");

    const unsigned n_switches =
        (multi.cards + multi.cardsPerSwitch - 1) / multi.cardsPerSwitch;
    for (unsigned s = 0; s < n_switches; ++s) {
        switches_.push_back(std::make_unique<pcie::PcieSwitch>(
            fabric.simulator(), "pcie-switch" + std::to_string(s)));
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
        auto &pcie_switch = *switches_[c / multi.cardsPerSwitch];
        // Each card's header DMA additionally crosses its switch's
        // shared root port.
        card_config.device.h2dTail = {&pcie_switch.root().h2d()};
        card_config.device.d2hTail = {&pcie_switch.root().d2h()};
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
    for (std::size_t s = 0; s < switches_.size(); ++s) {
        auto *sw = switches_[s].get();
        probes.add("pcie.switch" + std::to_string(s) + ".root",
                   [sw]() {
                       return static_cast<double>(
                           sw->root().h2d().totalBytes() +
                           sw->root().d2h().totalBytes());
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
