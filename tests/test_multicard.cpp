/**
 * @file
 * Tests for the multi-card server (§5.5) and the maintenance services
 * (§2.2.3 / §5.3): linear card scaling, shared-switch accounting, and
 * interference behaviour.
 */

#include <gtest/gtest.h>

#include <set>

#include "middletier/maintenance.h"
#include "storage/storage_server.h"
#include "middletier/multi_card_server.h"
#include "workload/experiment.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

workload::ExperimentConfig
smartdsConfig(unsigned cards)
{
    workload::ExperimentConfig config;
    config.design = Design::SmartDs;
    config.cards = cards;
    config.ports = 1;
    config.cores = 2;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 6 * ticksPerMillisecond;
    return config;
}

TEST(MultiCard, TwoCardsDoubleOneCard)
{
    const auto one = workload::runWriteExperiment(smartdsConfig(1));
    const auto two = workload::runWriteExperiment(smartdsConfig(2));
    EXPECT_NEAR(two.throughputGbps, 2.0 * one.throughputGbps,
                0.1 * one.throughputGbps);
    // Latency must stay flat across cards.
    EXPECT_NEAR(two.avgLatencyUs, one.avgLatencyUs,
                0.15 * one.avgLatencyUs);
}

TEST(MultiCard, FourCardsScaleLinearly)
{
    const auto one = workload::runWriteExperiment(smartdsConfig(1));
    const auto four = workload::runWriteExperiment(smartdsConfig(4));
    EXPECT_GT(four.throughputGbps, 3.6 * one.throughputGbps);
}

TEST(MultiCard, SwitchRootProbeAppears)
{
    const auto two = workload::runWriteExperiment(smartdsConfig(2));
    // Both cards sit behind switch 0 (4 cards per switch), so the root
    // carries both cards' header traffic.
    ASSERT_TRUE(two.usageGbps.count("pcie.switch0.root"));
    const double root = two.usageGbps.at("pcie.switch0.root");
    const double cards = two.usageGbps.at("pcie.smartds.h2d") +
                         two.usageGbps.at("pcie.smartds.d2h");
    EXPECT_NEAR(root, cards, 0.05 * cards);
}

TEST(MultiCard, FrontPortMappingCoversAllCards)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    ServerConfig config;
    config.cores = 2;
    storage::StorageServer s1(fabric, "s1"), s2(fabric, "s2"),
        s3(fabric, "s3");
    config.storageNodes = {s1.nodeId(), s2.nodeId(), s3.nodeId()};

    MultiCardSmartDsServer::MultiCardConfig multi;
    multi.cards = 3;
    multi.card.ports = 2;
    multi.card.workersPerPort = 1;
    MultiCardSmartDsServer server(fabric, memory, config, multi);

    EXPECT_EQ(server.frontPorts(), 6u);
    std::set<net::NodeId> nodes;
    for (unsigned p = 0; p < server.frontPorts(); ++p)
        nodes.insert(server.frontNode(p));
    EXPECT_EQ(nodes.size(), 6u); // all distinct physical ports
}

TEST(Maintenance, BurstsConsumeCoresAndMemory)
{
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    host::CorePool pool(sim, "cores", 8);
    MaintenanceService::Config config;
    config.meanInterval = 500 * ticksPerMicrosecond;
    config.burstBytes = 4u << 20;
    config.cores = 4;
    MaintenanceService service(sim, "maint", pool, memory, config);

    sim.runUntil(20 * ticksPerMillisecond);
    EXPECT_GT(service.burstsCompleted(), 10u);
    EXPECT_EQ(service.bytesCompacted(),
              service.burstsCompleted() * config.burstBytes);
    EXPECT_GT(pool.busyTicks(), 0u);
}

TEST(Maintenance, StopEndsTheLoop)
{
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    host::CorePool pool(sim, "cores", 8);
    MaintenanceService service(sim, "maint", pool, memory);
    sim.runUntil(5 * ticksPerMillisecond);
    service.stop();
    sim.run(); // must drain: the loop exits after the current burst
    const auto bursts = service.burstsCompleted();
    EXPECT_GE(bursts, 1u);
}

TEST(Maintenance, SharedCoresHurtCpuOnlyTails)
{
    auto base = [](workload::ExperimentConfig::Maintenance m) {
        workload::ExperimentConfig config;
        config.design = Design::CpuOnly;
        config.cores = 48;
        config.maintenance = m;
        config.warmup = 2 * ticksPerMillisecond;
        config.window = 8 * ticksPerMillisecond;
        return workload::runWriteExperiment(config);
    };
    const auto off = base(workload::ExperimentConfig::Maintenance::Off);
    const auto shared =
        base(workload::ExperimentConfig::Maintenance::SharedCores);
    EXPECT_LT(shared.throughputGbps, off.throughputGbps);
    EXPECT_GT(shared.p999LatencyUs, off.p999LatencyUs);
}

TEST(Maintenance, SharedCoresHurtAccTails)
{
    // Acc parses every request on host cores, so maintenance that shares
    // them must cost more than the same maintenance on cores of its own.
    auto base = [](workload::ExperimentConfig::Maintenance m) {
        workload::ExperimentConfig config;
        config.design = Design::Accelerator;
        config.cores = 4;
        config.maintenance = m;
        config.warmup = 2 * ticksPerMillisecond;
        config.window = 8 * ticksPerMillisecond;
        return workload::runWriteExperiment(config);
    };
    const auto dedicated =
        base(workload::ExperimentConfig::Maintenance::DedicatedCores);
    const auto shared =
        base(workload::ExperimentConfig::Maintenance::SharedCores);
    EXPECT_LT(shared.throughputGbps, dedicated.throughputGbps);
    EXPECT_GT(shared.p999LatencyUs, dedicated.p999LatencyUs);
}

TEST(Maintenance, DedicatedCoresLeaveSmartDsUnaffected)
{
    auto base = [](workload::ExperimentConfig::Maintenance m) {
        workload::ExperimentConfig config;
        config.design = Design::SmartDs;
        config.cores = 2;
        config.maintenance = m;
        config.warmup = 2 * ticksPerMillisecond;
        config.window = 8 * ticksPerMillisecond;
        return workload::runWriteExperiment(config);
    };
    const auto off = base(workload::ExperimentConfig::Maintenance::Off);
    const auto dedicated =
        base(workload::ExperimentConfig::Maintenance::DedicatedCores);
    EXPECT_GT(dedicated.throughputGbps, 0.97 * off.throughputGbps);
}

} // namespace
} // namespace smartds::middletier
