/**
 * @file
 * Zero-allocation regression tests for the simulator's hot path. A
 * counting global operator new (this binary only) checks that, once warm,
 * each per-event primitive allocates nothing: a zero-delay schedule and
 * dispatch, a BandwidthServer transfer, a FairShareResource flow transfer,
 * a 4 KiB DmaEngine read and write, and a Port::send to receive hop.
 * Figure sweeps run hundreds of millions of these, so an allocation that
 * creeps back into one shows up here rather than as a slower benchmark.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/fabric.h"
#include "pcie/pcie.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/simulator.h"

namespace {

/** Global operator-new calls (see the counting allocator below). */
// simlint: allow(mutable-global): operator new has no owning object to
// thread a counter through; atomic, test-only telemetry
std::atomic<std::uint64_t> newCalls{0};

} // namespace

void *
operator new(std::size_t size)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
// simlint: allow(naked-new): counting-allocator definition, not an allocation
operator new[](std::size_t size)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace smartds {
namespace {

using namespace smartds::time_literals;

/** Global allocations made while running @p fn. */
template <typename F>
std::uint64_t
allocationsDuring(F &&fn)
{
    const std::uint64_t before = newCalls.load(std::memory_order_relaxed);
    fn();
    return newCalls.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAllocs, ZeroDelayScheduleAndDispatch)
{
    sim::Simulator sim;
    int fired = 0;
    // Chains of zero-delay events, as FairShare completions and coroutine
    // resumptions produce them: each runs in the same-tick lane.
    auto round = [&]() {
        for (int i = 0; i < 32; ++i)
            sim.schedule(0, [&sim, &fired]() {
                ++fired;
                sim.schedule(0, [&fired]() { ++fired; });
            });
        sim.run();
    };
    round(); // warm-up: grows the event slab, free list and lane
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(fired, 128);
}

TEST(HotPathAllocs, BandwidthServerTransfer)
{
    sim::Simulator sim;
    sim::BandwidthServer server(sim, "link", 12.5e9, 100_ns);
    int done = 0;
    auto round = [&]() {
        for (int i = 0; i < 32; ++i)
            server.transfer(4096, [&done]() { ++done; });
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(done, 64);
}

TEST(HotPathAllocs, FairShareFlowTransfer)
{
    sim::Simulator sim;
    sim::FairShareResource mem(sim, "mem", 120e9);
    sim::FairShareResource::Flow *a = mem.createFlow("a");
    sim::FairShareResource::Flow *b = mem.createFlow("b", 2.0);
    int done = 0;
    auto round = [&]() {
        for (int i = 0; i < 16; ++i) {
            a->transfer(4096, [&done]() { ++done; });
            b->transfer(4096, [&done]() { ++done; });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(done, 64);
}

TEST(HotPathAllocs, DmaReadAndWrite)
{
    sim::Simulator sim;
    pcie::PcieLink link(sim, "pcie");
    sim::FairShareResource mem(sim, "mem", 120e9);
    pcie::DmaEngine dma(sim, "dma", nullptr, {&link.h2d()}, {&link.d2h()});
    // A memory flow exercises the stall and DRAM stages of both paths.
    pcie::DmaEngine::Options options;
    options.memFlow = mem.createFlow("dma");
    int done = 0;
    auto round = [&]() {
        for (int i = 0; i < 8; ++i) {
            dma.read(4096, options, [&done](Tick) { ++done; });
            dma.write(4096, options, [&done](Tick) { ++done; });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(done, 32);
}

TEST(HotPathAllocs, PortSendToReceive)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    net::Port *a = fabric.createPort("a");
    net::Port *b = fabric.createPort("b");
    int received = 0;
    b->onReceive([&received](net::Message msg) {
        received += msg.payload.size == 4096;
    });
    auto round = [&]() {
        for (int i = 0; i < 16; ++i) {
            net::Message msg;
            msg.dst = b->id();
            msg.payload.size = 4096;
            a->send(std::move(msg));
        }
        sim.run();
    };
    round(); // warm-up: grows the port and delay-line rings
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(received, 32);
}

} // namespace
} // namespace smartds
