/**
 * @file
 * Tests for the network fabric: delivery, ordering, framing overhead,
 * line-rate limits and ingress contention.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.h"
#include "sim/simulator.h"

namespace smartds::net {
namespace {

using namespace smartds::time_literals;

struct FabricFixture : ::testing::Test
{
    sim::Simulator sim;
    Fabric fabric{sim};
};

TEST_F(FabricFixture, DeliversToDestination)
{
    Port *a = fabric.createPort("a");
    Port *b = fabric.createPort("b");
    bool got = false;
    b->onReceive([&](Message msg) {
        got = true;
        EXPECT_EQ(msg.src, a->id());
        EXPECT_EQ(msg.tag, 42u);
    });
    Message msg;
    msg.dst = b->id();
    msg.tag = 42;
    msg.headerBytes = 64;
    a->send(std::move(msg));
    sim.run();
    EXPECT_TRUE(got);
}

TEST_F(FabricFixture, EndToEndLatencyIncludesSerializationAndPropagation)
{
    Port *a = fabric.createPort("a");
    Port *b = fabric.createPort("b");
    Tick arrival = 0;
    b->onReceive([&](Message) { arrival = sim.now(); });
    Message msg;
    msg.dst = b->id();
    msg.headerBytes = 64;
    msg.payload.size = 4096;
    a->send(std::move(msg));
    sim.run();
    // 2x serialisation of ~4242 wire bytes at 12.5 GB/s (~339 ns each)
    // plus 1.5 us propagation.
    EXPECT_NEAR(toMicroseconds(arrival), 0.339 * 2 + 1.5, 0.05);
}

TEST_F(FabricFixture, InOrderPerPair)
{
    Port *a = fabric.createPort("a");
    Port *b = fabric.createPort("b");
    std::vector<std::uint64_t> tags;
    b->onReceive([&](Message msg) { tags.push_back(msg.tag); });
    for (std::uint64_t i = 0; i < 20; ++i) {
        Message msg;
        msg.dst = b->id();
        msg.tag = i;
        msg.headerBytes = 64;
        a->send(std::move(msg));
    }
    sim.run();
    ASSERT_EQ(tags.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(tags[i], i);
}

TEST_F(FabricFixture, FramingChargesPerMtuPacket)
{
    Framing framing;
    EXPECT_EQ(framing.wireBytes(0), framing.perPacketOverhead);
    EXPECT_EQ(framing.wireBytes(1), 1 + framing.perPacketOverhead);
    EXPECT_EQ(framing.wireBytes(4096), 4096 + framing.perPacketOverhead);
    EXPECT_EQ(framing.wireBytes(4097), 4097 + 2 * framing.perPacketOverhead);
    EXPECT_EQ(framing.wireBytes(3 * 4096),
              3 * 4096 + 3 * framing.perPacketOverhead);
}

TEST_F(FabricFixture, GoodputBelowLineRate)
{
    // Saturate a receiver with 4 KiB messages; application goodput must
    // land near the ~94-96 Gbps RoCE goodput, below the 100 Gbps line.
    Port *rx = fabric.createPort("rx");
    Port *tx = fabric.createPort("tx");
    Bytes received = 0;
    rx->onReceive([&](Message msg) { received += msg.wireBytes(); });
    const int messages = 3000;
    for (int i = 0; i < messages; ++i) {
        Message msg;
        msg.dst = rx->id();
        msg.headerBytes = 64;
        msg.payload.size = 4096;
        tx->send(std::move(msg));
    }
    sim.run();
    const double goodput =
        toGbps(static_cast<double>(received) / toSeconds(sim.now()));
    EXPECT_GT(goodput, 90.0);
    EXPECT_LT(goodput, 100.0);
}

TEST_F(FabricFixture, IngressContentionCapsAggregate)
{
    // Two senders into one receiver cannot exceed the receiver's line.
    Port *rx = fabric.createPort("rx");
    Port *tx1 = fabric.createPort("tx1");
    Port *tx2 = fabric.createPort("tx2");
    Bytes received = 0;
    Tick last = 0;
    rx->onReceive([&](Message msg) {
        received += msg.wireBytes();
        last = sim.now();
    });
    for (int i = 0; i < 1000; ++i) {
        Message m1;
        m1.dst = rx->id();
        m1.payload.size = 4096;
        tx1->send(std::move(m1));
        Message m2;
        m2.dst = rx->id();
        m2.payload.size = 4096;
        tx2->send(std::move(m2));
    }
    sim.run();
    const double rate = toGbps(static_cast<double>(received) /
                               toSeconds(last));
    EXPECT_LT(rate, 100.0);
    EXPECT_GT(rate, 85.0);
}

TEST_F(FabricFixture, LocalSendCompletionFiresAtWireDeparture)
{
    Port *a = fabric.createPort("a");
    Port *b = fabric.createPort("b");
    Tick sent = 0, arrived = 0;
    b->onReceive([&](Message) { arrived = sim.now(); });
    Message msg;
    msg.dst = b->id();
    msg.payload.size = 4096;
    a->send(std::move(msg), [&]() { sent = sim.now(); });
    sim.run();
    EXPECT_GT(sent, 0u);
    // Local completion precedes remote arrival by propagation + rx time.
    EXPECT_LT(sent, arrived);
}

} // namespace
} // namespace smartds::net
