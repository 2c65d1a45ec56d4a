/**
 * @file
 * Tests for the host memory model: loaded-latency curve, the utilisation
 * average behind it and the MLC pressure injector.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "mem/mlc_injector.h"
#include "sim/simulator.h"

namespace smartds::mem {
namespace {

using namespace smartds::time_literals;

TEST(MemorySystem, IdleLatencyWhenUnloaded)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    EXPECT_EQ(memory.loadedLatency(), calibration::hostMemoryIdleLatency);
}

TEST(MemorySystem, LatencyGrowsMonotonicallyWithUtilization)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    auto *hog = memory.createFlow("hog");
    Tick prev = memory.loadedLatency();
    for (double frac : {0.25, 0.5, 0.75, 0.9, 1.0}) {
        hog->setDemand(frac * memory.capacity());
        // Let the utilisation average converge to the new load.
        sim.runUntil(sim.now() + 200_us);
        const Tick lat = memory.loadedLatency();
        EXPECT_GE(lat, prev) << "at " << frac;
        prev = lat;
    }
    // At saturation the curve reaches idle + loadedExtra.
    EXPECT_NEAR(static_cast<double>(prev),
                static_cast<double>(calibration::hostMemoryIdleLatency +
                                    calibration::hostMemoryLoadedExtraLatency),
                1e7 * 0.01);
}

TEST(MemorySystem, CurveIsGentleAtLowUtilization)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    auto *hog = memory.createFlow("hog");
    hog->setDemand(0.3 * memory.capacity());
    sim.runUntil(200_us);
    // u^3 at 0.3 is <3% of the extra latency.
    EXPECT_LT(memory.loadedLatency(),
              calibration::hostMemoryIdleLatency + ticksPerMicrosecond / 5);
}

// The utilisation average lives here, not in sim::FairShareResource: it
// is the one average anything reads, so only MemorySystem pays its exp.

TEST(MemorySystemAverage, EmaTracksSustainedLoad)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {.capacity = 1e9});
    auto *hog = memory.createFlow("hog");
    hog->setDemand(0.5e9);
    sim.runUntil(200_us); // several tau
    EXPECT_NEAR(memory.utilization(), 0.5, 0.02);
    hog->setDemand(0.0);
    sim.runUntil(400_us);
    EXPECT_NEAR(memory.utilization(), 0.0, 0.02);
}

TEST(MemorySystemAverage, ShortTransferBurstsAverageBelowOne)
{
    // Instantaneous utilisation is 1.0 while an elastic transfer runs;
    // the average reflects the duty cycle instead.
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {.capacity = 1e9});
    auto *flow = memory.createFlow("f");
    // 10% duty cycle: 10 us of transfer every 100 us.
    for (int i = 0; i < 10; ++i) {
        sim.schedule(static_cast<Tick>(i) * 100_us, [flow]() {
            flow->transfer(10'000, []() {}); // 10 us at full rate
        });
    }
    // Sample right at the end of a burst: the 10 us of full-rate
    // transfer raises the 20 us-horizon average partway toward 1,
    // and the 90 us idle gaps pull it back down well below saturation.
    sim.runUntil(910_us);
    EXPECT_LT(memory.utilization(), 0.7);
    EXPECT_GT(memory.utilization(), 0.1);
}

TEST(MlcInjector, OffDelayMeansZeroDemand)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    MlcInjector mlc(memory, {});
    EXPECT_DOUBLE_EQ(mlc.demandFor(MlcInjector::offDelay), 0.0);
}

TEST(MlcInjector, ZeroDelayDemandsPerCoreMax)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    MlcInjector::Config config;
    config.cores = 16;
    MlcInjector mlc(memory, config);
    EXPECT_NEAR(mlc.demandFor(0), 16 * calibration::mlcPerCoreBandwidth,
                16 * calibration::mlcPerCoreBandwidth * 1e-9);
}

TEST(MlcInjector, DemandDecreasesWithDelay)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    MlcInjector mlc(memory, {});
    double prev = mlc.demandFor(0);
    for (unsigned delay : {10u, 50u, 200u, 1000u, 5000u}) {
        const double d = mlc.demandFor(delay);
        EXPECT_LT(d, prev);
        prev = d;
    }
}

TEST(MlcInjector, AchievedRateBoundedByCapacity)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    MlcInjector::Config config;
    config.cores = 48;
    MlcInjector mlc(memory, config);
    mlc.setDelayCycles(0);
    sim.runUntil(10_us);
    EXPECT_LE(mlc.achievedRate(), memory.capacity() * 1.0001);
    EXPECT_GT(mlc.achievedRate(), memory.capacity() * 0.99);
}

TEST(MlcInjector, FairShareLeavesRoomForDmaFlows)
{
    sim::Simulator sim;
    MemorySystem memory(sim, "mem", {});
    MlcInjector mlc(memory, {});
    mlc.setDelayCycles(0);
    auto *dma = memory.createFlow("dma");
    Tick done = 0;
    // 12 GB at 120 GB/s capacity: fair share gives dma >= half.
    dma->transfer(1'200'000, [&]() { done = sim.now(); });
    sim.runUntil(1_ms);
    EXPECT_GT(done, 0u);
    EXPECT_LT(done, 25_us); // would be 10 us alone, <= 20 us at half rate
}

} // namespace
} // namespace smartds::mem
