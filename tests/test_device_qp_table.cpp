/**
 * @file
 * The SmartDS device's per-QP receive table: a message and its recv
 * descriptor meet whichever arrives first, a QP reset flushes posted
 * descriptors with 0 (message left at kind Raw) and drops queued
 * messages, pendingMessages() counts every port, and a message for a
 * queue pair the port never created is a checked error.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "smartds/device.h"

namespace smartds::device {
namespace {

struct QpTableFixture : ::testing::Test
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    net::Port *peer = nullptr;

    QpTableFixture()
    {
        peer = fabric.createPort("peer");
        peer->onReceive([](net::Message) {});
    }

    static SmartDsDevice::Config
    ports(unsigned n)
    {
        SmartDsDevice::Config config;
        config.ports = n;
        return config;
    }

    /** Send a 64 + @p payload byte message tagged @p tag to @p qp. */
    void
    deliver(SmartDsDevice &dev, const SmartDsDevice::Qp &qp,
            std::uint64_t tag, Bytes payload = 1024)
    {
        net::Message msg;
        msg.dst = dev.nodeId(qp.port);
        msg.dstQp = qp.local;
        msg.kind = net::MessageKind::WriteRequest;
        msg.headerBytes = 64;
        msg.tag = tag;
        msg.payload.size = payload;
        peer->send(std::move(msg));
    }
};

TEST_F(QpTableFixture, MessageBeforeItsDescriptor)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    deliver(dev, qp, 5);
    sim.run();
    EXPECT_EQ(dev.pendingMessages(), 1u);

    auto event = dev.mixedRecv(qp, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    EXPECT_EQ(dev.pendingMessages(), 0u);
    sim.run();
    ASSERT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 1024u);
    ASSERT_TRUE(event.message);
    EXPECT_EQ(event.message->tag, 5u);
    EXPECT_EQ(event.message.get()->kind, net::MessageKind::WriteRequest);
}

TEST_F(QpTableFixture, DescriptorBeforeItsMessage)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    auto event = dev.mixedRecv(qp, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    // Posted and empty until the message lands.
    ASSERT_TRUE(event.message);
    EXPECT_EQ(event.message->kind, net::MessageKind::Raw);
    sim.run();
    EXPECT_FALSE(event.completion.done());

    deliver(dev, qp, 9, 2048);
    sim.run();
    ASSERT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 2048u);
    EXPECT_EQ((*event.message).tag, 9u);
    EXPECT_EQ(dev.pendingMessages(), 0u);
}

TEST_F(QpTableFixture, EventCopiesShareTheMessage)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    auto event = dev.mixedRecv(qp, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    const SmartDsDevice::Event copy = event;
    MessageRef handle = event.message;
    event = SmartDsDevice::Event{sim::Completion(sim), nullptr};
    EXPECT_FALSE(event.message);
    deliver(dev, qp, 3);
    sim.run();
    // The handle outlives the Event it came from, and sees the fill.
    EXPECT_EQ(handle->tag, 3u);
    EXPECT_EQ(copy.message->tag, 3u);
    EXPECT_TRUE(copy.completion.done());
}

TEST_F(QpTableFixture, ResetFlushesDescriptorsAndDropsMessages)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    const auto other = dev.createQp(0);
    auto first = dev.mixedRecv(qp, dev.hostAlloc(64), 64, nullptr, 0);
    auto second = dev.mixedRecv(qp, dev.hostAlloc(64), 64, nullptr, 0);
    deliver(dev, other, 1);
    deliver(dev, other, 2);
    sim.run();
    EXPECT_EQ(dev.pendingMessages(), 2u);

    dev.resetQp(qp);
    dev.resetQp(other);
    EXPECT_EQ(dev.pendingMessages(), 0u);
    sim.run();
    for (const auto *event : {&first, &second}) {
        ASSERT_TRUE(event->completion.done());
        EXPECT_EQ(event->size(), 0u);
        ASSERT_TRUE(event->message);
        EXPECT_EQ(event->message->kind, net::MessageKind::Raw);
    }

    // Both queue pairs work normally after the reset: the dropped
    // messages are gone, and new traffic matches new descriptors.
    auto again = dev.mixedRecv(other, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    deliver(dev, other, 7);
    sim.run();
    ASSERT_TRUE(again.completion.done());
    EXPECT_EQ(again.message->tag, 7u);
}

TEST_F(QpTableFixture, ResetOfAQpThatNeverReceived)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    dev.resetQp(qp);
    dev.resetQp(qp);
    EXPECT_EQ(dev.pendingMessages(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    auto event = dev.mixedRecv(qp, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    deliver(dev, qp, 11);
    sim.run();
    ASSERT_TRUE(event.completion.done());
    EXPECT_EQ(event.message->tag, 11u);
}

TEST_F(QpTableFixture, PendingMessagesAcrossPorts)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(3));
    const auto a = dev.createQp(0);
    const auto b = dev.createQp(1);
    const auto c = dev.createQp(2);
    const auto c2 = dev.createQp(2);
    // Ids are handed out densely per port, from 1.
    EXPECT_EQ(a.local, 1u);
    EXPECT_EQ(b.local, 1u);
    EXPECT_EQ(c.local, 1u);
    EXPECT_EQ(c2.local, 2u);
    deliver(dev, a, 1);
    deliver(dev, b, 2);
    deliver(dev, b, 3);
    deliver(dev, c2, 4);
    sim.run();
    EXPECT_EQ(dev.pendingMessages(), 4u);
    dev.resetQp(b);
    EXPECT_EQ(dev.pendingMessages(), 2u);
    auto event = dev.mixedRecv(c2, dev.hostAlloc(64), 64,
                               dev.devAlloc(4096), 4096);
    EXPECT_EQ(dev.pendingMessages(), 1u);
    sim.run();
    EXPECT_EQ(event.message->tag, 4u);
}

TEST_F(QpTableFixture, MessageForANeverCreatedQpDies)
{
    SmartDsDevice dev(fabric, "dev", &memory, ports(1));
    const auto qp = dev.createQp(0);
    SmartDsDevice::Qp bogus = qp;
    bogus.local = qp.local + 5;
    EXPECT_DEATH(
        {
            deliver(dev, bogus, 1);
            sim.run();
        },
        "has no queue pair 6");
}

} // namespace
} // namespace smartds::device
