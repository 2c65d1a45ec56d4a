/**
 * @file
 * Tests for the PCIe model: idle latency (Table 1), load-dependent
 * latency growth, chunking, windows, switch paths and memory coupling.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "pcie/pcie.h"
#include "sim/simulator.h"

namespace smartds::pcie {
namespace {

using namespace smartds::time_literals;
using namespace smartds::size_literals;

struct PcieFixture : ::testing::Test
{
    sim::Simulator sim;
    mem::MemorySystem memory{sim, "mem", {}};
    PcieLink link{sim, "link"};
    DmaEngine dma{sim, "dma", &memory, {&link.h2d()}, {&link.d2h()}};
};

TEST_F(PcieFixture, IdleWriteLatencyNearTable1)
{
    Tick latency = 0;
    dma.write(4096, {}, [&](Tick t) { latency = t; });
    sim.run();
    // ~1.05 us base + ~0.3 us serialisation at 13 GB/s: Table 1's 1.4 us.
    EXPECT_NEAR(toMicroseconds(latency), 1.4, 0.15);
}

TEST_F(PcieFixture, IdleReadLatencyIncludesMemory)
{
    DmaEngine::Options options;
    options.memFlow = memory.createFlow("dma-read");
    options.stallOnMemory = true;
    Tick latency = 0;
    dma.read(4096, options, [&](Tick t) { latency = t; });
    sim.run();
    // base + ~0.09 us idle memory + serialisation: Table 1's 1.4 us.
    EXPECT_NEAR(toMicroseconds(latency), 1.5, 0.2);
}

TEST_F(PcieFixture, LoadedLatencyGrowsTowardTable1)
{
    // Saturate the H2D direction, then probe: the probe queues behind
    // roughly a full read window of chunks (Table 1: ~11.3 us loaded).
    for (int i = 0; i < 2000; ++i)
        dma.read(4096, {}, [](Tick) {});
    Tick probe = 0;
    dma.read(4096, {}, [&](Tick t) { probe = t; });
    sim.run();
    EXPECT_GT(toMicroseconds(probe), 5.0);
}

TEST_F(PcieFixture, LargeTransferIsChunkedAtFullBandwidth)
{
    Tick latency = 0;
    dma.write(1_MiB, {}, [&](Tick t) { latency = t; });
    sim.run();
    // 1 MiB at 13 GB/s ~ 80.7 us + base latency; windowing must not
    // serialise chunks behind their own base latency.
    EXPECT_NEAR(toMicroseconds(latency), 80.7 + 1.4, 2.0);
}

TEST_F(PcieFixture, ZeroByteTransferCompletesImmediately)
{
    bool fired = false;
    dma.write(0, {}, [&](Tick t) {
        fired = true;
        EXPECT_EQ(t, 0u);
    });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST_F(PcieFixture, ReadsAndWritesUseIndependentWindows)
{
    // Saturating reads must not delay a lone write.
    for (int i = 0; i < 1000; ++i)
        dma.read(4096, {}, [](Tick) {});
    Tick write_latency = 0;
    dma.write(4096, {}, [&](Tick t) { write_latency = t; });
    sim.run();
    EXPECT_LT(toMicroseconds(write_latency), 2.5);
}

TEST_F(PcieFixture, MemoryPressureSlowsDmaReads)
{
    auto *hog = memory.createFlow("hog");
    hog->setDemand(memory.capacity()); // fully load the memory system
    sim.runUntil(200_us); // let the averaged utilisation converge
    DmaEngine::Options options;
    options.memFlow = memory.createFlow("dma-read");
    options.stallOnMemory = true;
    Tick loaded = 0;
    dma.read(4096, options, [&](Tick t) { loaded = t; });
    sim.run();
    // Loaded memory latency (~3 us extra) shows up in the DMA read.
    EXPECT_GT(toMicroseconds(loaded), 4.0);
}

TEST(PcieSwitch, RootSharedBetweenDownstreamDevices)
{
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    // Two devices behind one switch, composed as the multi-card host
    // does: each DMA path is {device link, root}, and the root adds no
    // latency of its own.
    PcieLink::Config root_config;
    root_config.baseLatency = 0;
    PcieLink root(sim, "sw.root", root_config);
    PcieLink dev0(sim, "sw.dev0");
    PcieLink dev1(sim, "sw.dev1");
    DmaEngine dma0(sim, "dma0", &memory, {&dev0.h2d(), &root.h2d()},
                   {&dev0.d2h(), &root.d2h()});
    DmaEngine dma1(sim, "dma1", &memory, {&dev1.h2d(), &root.h2d()},
                   {&dev1.d2h(), &root.d2h()});

    // Two devices each writing 1 MiB: the shared root serialises them,
    // so the total takes ~2x one device's time.
    int done = 0;
    Tick finish = 0;
    auto cb = [&](Tick) {
        if (++done == 2)
            finish = sim.now();
    };
    dma0.write(1_MiB, {}, cb);
    dma1.write(1_MiB, {}, cb);
    sim.run();
    EXPECT_NEAR(toMicroseconds(finish), 2 * 80.7 + 1.4, 4.0);
}

TEST(Pcie, Gen4HasDoubleBandwidth)
{
    sim::Simulator sim;
    PcieLink::Config gen4;
    gen4.bandwidth = calibration::pcieGen4x16Bandwidth;
    PcieLink link(sim, "gen4", gen4);
    DmaEngine dma(sim, "dma", nullptr, {&link.h2d()}, {&link.d2h()});
    Tick latency = 0;
    dma.write(1_MiB, {}, [&](Tick t) { latency = t; });
    sim.run();
    EXPECT_NEAR(toMicroseconds(latency), 80.7 / 2 + 1.4, 2.0);
}

} // namespace
} // namespace smartds::pcie

namespace smartds::pcie {
namespace {

using namespace smartds::time_literals;

TEST(DmaWindow, SmallControlDmasPipelineThroughByteWindow)
{
    // A byte window admits many 64-byte header DMAs concurrently, so the
    // message rate is not capped at (window/chunk) x latency.
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    PcieLink link(sim, "l");
    DmaEngine::Config config;
    config.chunkBytes = 4096;
    config.writeWindowBytes = 32 * 1024;
    DmaEngine dma(sim, "dma", &memory, {&link.h2d()}, {&link.d2h()},
                  config);
    int done = 0;
    const Tick start = sim.now();
    for (int i = 0; i < 1000; ++i)
        dma.write(64, {}, [&](Tick) { ++done; });
    sim.run();
    EXPECT_EQ(done, 1000);
    // 1000 x 64 B serialise in ~5 us; with a count-based window of 8 the
    // run would take >= 1000/8 x 1.05 us ~ 131 us.
    EXPECT_LT(toMicroseconds(sim.now() - start), 40.0);
}

TEST(DmaWindow, WriteCreditsDrainThroughMemory)
{
    // Under full memory pressure, write slots are held until DRAM
    // accepts the data, throttling a posted-write stream.
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    auto *hog = memory.createFlow("hog");
    hog->setDemand(memory.capacity());
    sim.runUntil(300_us);

    PcieLink link(sim, "l");
    DmaEngine::Config config;
    config.writeWindowBytes = 32 * 1024;
    DmaEngine dma(sim, "dma", &memory, {&link.h2d()}, {&link.d2h()},
                  config);
    auto *flow = memory.createFlow("dma-w");
    Bytes moved = 0;
    const Tick start = sim.now();
    int outstanding = 0;
    for (int i = 0; i < 200; ++i) {
        ++outstanding;
        DmaEngine::Options options;
        options.memFlow = flow;
        options.stallOnMemory = false;
        dma.write(4096, options, [&](Tick) {
            moved += 4096;
            --outstanding;
        });
    }
    sim.run();
    const double gbps =
        toGbps(static_cast<double>(moved) / toSeconds(sim.now() - start));
    EXPECT_EQ(moved, 200u * 4096u);
    // Loaded latency (~4 us per credit recycle over a 8-chunk window)
    // caps the stream far below the ~104 Gbps link.
    EXPECT_LT(gbps, 70.0);
}

} // namespace
} // namespace smartds::pcie
