/**
 * @file
 * Unit tests for the FIFO bandwidth server: serialisation time, queueing,
 * pipeline latency and backlog accounting.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/random.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"

namespace smartds::sim {
namespace {

using namespace smartds::time_literals;
using namespace smartds::size_literals;

TEST(BandwidthServer, SingleTransferTakesSizeOverRate)
{
    Simulator sim;
    // 1 GB/s -> 1 byte per ns.
    BandwidthServer server(sim, "s", 1e9);
    Tick done = 0;
    server.transfer(1000, [&]() { done = sim.now(); });
    sim.run();
    EXPECT_EQ(done, 1000_ns);
}

TEST(BandwidthServer, BaseLatencyAddsToCompletion)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9, 500_ns);
    Tick done = 0;
    server.transfer(1000, [&]() { done = sim.now(); });
    sim.run();
    EXPECT_EQ(done, 1500_ns);
}

TEST(BandwidthServer, FifoQueueingSerialisesTransfers)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    Tick first = 0, second = 0;
    server.transfer(1000, [&]() { first = sim.now(); });
    server.transfer(1000, [&]() { second = sim.now(); });
    sim.run();
    EXPECT_EQ(first, 1000_ns);
    EXPECT_EQ(second, 2000_ns);
}

TEST(BandwidthServer, PipelineLatencyDoesNotBlockNextTransfer)
{
    Simulator sim;
    // Large base latency: completions are delayed, but the server frees
    // up after serialisation, so back-to-back transfers pipeline.
    BandwidthServer server(sim, "s", 1e9, 10_us);
    Tick first = 0, second = 0;
    server.transfer(1000, [&]() { first = sim.now(); });
    server.transfer(1000, [&]() { second = sim.now(); });
    sim.run();
    EXPECT_EQ(first, 1_us + 10_us);
    EXPECT_EQ(second, 2_us + 10_us);
}

TEST(BandwidthServer, CompletionsFollowSubmissionOrder)
{
    // Components park per-transfer state in a FIFO and pop it on each
    // completion, so completions must come back in submission order —
    // across rate changes (a slower rate must not let a later transfer
    // overtake), zero-byte transfers and equal finish ticks.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Simulator sim;
        BandwidthServer server(sim, "s", 1e9, seed % 3 == 0 ? 0 : 250_ns);
        Rng rng(seed);
        std::vector<int> order;
        int submitted = 0;
        std::function<void()> burst = [&]() {
            const unsigned n = 1 + static_cast<unsigned>(rng.below(6));
            for (unsigned i = 0; i < n; ++i) {
                // Near-infinite rates give zero service ticks: equal
                // finish ticks back to back.
                if (rng.below(4) == 0)
                    server.setRate(rng.below(2) ? 1e15
                                                : 1e8 * (1 + rng.below(40)));
                const Bytes bytes = rng.below(3) == 0 ? 0 : rng.below(5000);
                server.transfer(bytes, [&order, id = submitted++]() {
                    order.push_back(id);
                });
            }
            if (submitted < 400)
                sim.schedule(rng.below(3) * 100_ns, [&burst]() { burst(); });
        };
        burst();
        sim.run();
        ASSERT_EQ(order.size(), static_cast<std::size_t>(submitted));
        for (int i = 0; i < submitted; ++i)
            ASSERT_EQ(order[static_cast<std::size_t>(i)], i)
                << "seed " << seed;
    }
}

TEST(BandwidthServer, BacklogTracksOutstandingWork)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    server.transfer(5000, []() {});
    EXPECT_EQ(server.backlog(), 5000_ns);
    sim.run();
    EXPECT_EQ(server.backlog(), 0u);
}

TEST(BandwidthServer, ZeroByteTransferCompletesAfterBaseLatency)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9, 100_ns);
    Tick done = 0;
    bool fired = false;
    server.transfer(0, [&]() {
        done = sim.now();
        fired = true;
    });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(done, 100_ns);
}

TEST(BandwidthServer, BusyTicksAccumulate)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    server.transfer(100, []() {});
    server.transfer(300, []() {});
    sim.run();
    EXPECT_EQ(server.busyTicks(), 400_ns);
    EXPECT_EQ(server.totalBytes(), 400u);
}

TEST(BandwidthServer, RateChangeAffectsFutureTransfers)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    Tick first = 0, second = 0;
    server.transfer(1000, [&]() { first = sim.now(); });
    sim.run();
    server.setRate(2e9);
    server.transfer(1000, [&]() { second = sim.now(); });
    sim.run();
    EXPECT_EQ(first, 1000_ns);
    EXPECT_EQ(second, first + 500_ns);
}

TEST(BandwidthServer, HundredGbitLineRateTiming)
{
    Simulator sim;
    // 100 Gbps = 12.5 GB/s; 4 KiB takes ~327.68 ns.
    BandwidthServer server(sim, "port", gbps(100.0));
    Tick done = 0;
    server.transfer(4096, [&]() { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(static_cast<double>(done), 327680.0, 2.0);
}

} // namespace
} // namespace smartds::sim
