/**
 * @file
 * Zero-allocation regression tests for the simulator's hot path. A
 * counting global operator new (this binary only) checks that, once warm,
 * each per-event primitive allocates nothing: a zero-delay schedule and
 * dispatch, a cancelled far-future timer, a BandwidthServer transfer, a
 * FairShareResource flow transfer, the re-key of a FairShareResource's
 * pending completion timer, a 4 KiB DmaEngine read and write, a
 * Port::send to receive hop, a Completion awaited by a Process, a
 * CountLatch join, a spawned Process run to completion, a Task awaited
 * by a Process, a PDES round of small cross-domain posts, a port hop
 * between two timing domains, and a HotBlockCache lookup, insert,
 * invalidate and eviction. The hot-path callback parameters — a DMA
 * completion, a queued CorePool item, a Port send completion and a
 * Completion callback — are checked with captures too large for
 * std::function's local buffer (shared_ptrs, a 40-byte struct).
 * Figure sweeps run hundreds of millions of these, so an allocation that
 * creeps back into one shows up here rather than as a slower benchmark.
 *
 * Whole request paths get a budget instead of zero: each design's
 * steady-state allocations per request, measured as the difference
 * between a 5 ms and a 15 ms measurement window of the default timing
 * configuration, for 100% writes and for half reads.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "host/core_pool.h"
#include "middletier/hot_block_cache.h"
#include "net/fabric.h"
#include "pcie/pcie.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/pdes.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace {

/** Global operator-new calls (see the counting allocator below). */
// simlint: allow(mutable-global): operator new has no owning object to
// thread a counter through; atomic, test-only telemetry
std::atomic<std::uint64_t> newCalls{0};

// The counting allocator's heap, kept out of line: inlined, GCC pairs a
// counting operator new's malloc() with a replaced operator delete's
// free() and reports a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void *
countedMalloc(std::size_t size)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
heapFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedMalloc(size);
}

void *
// simlint: allow(naked-new): counting-allocator definition, not an allocation
operator new[](std::size_t size)
{
    return countedMalloc(size);
}

void operator delete(void *p) noexcept { heapFree(p); }
void operator delete(void *p, std::size_t) noexcept { heapFree(p); }
void operator delete[](void *p) noexcept { heapFree(p); }
void operator delete[](void *p, std::size_t) noexcept { heapFree(p); }

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

TEST(HotPathAllocs, CancelledFarFutureTimer)
{
    sim::Simulator sim;
    bool no_dead_entries = true;
    // A replica-ack timeout armed far ahead and cancelled before the
    // nearer event it guards fires: the cancel unlinks it at once.
    auto round = [&]() {
        for (int i = 0; i < 32; ++i) {
            sim::EventHandle timer = sim.schedule(800_us, []() {});
            sim.schedule(1_ns, []() {});
            timer.cancel();
            no_dead_entries &= sim.heapEntries() == sim.pendingEvents();
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_TRUE(no_dead_entries);
    EXPECT_EQ(sim.pendingEvents(), 0u);
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

TEST(HotPathAllocs, FairShareTimerReKey)
{
    // Short transfers joining a long one move the resource's pending
    // completion timer each time: the timer's event is re-keyed in its
    // slot, neither cancelled nor scheduled anew.
    sim::Simulator sim;
    sim::FairShareResource mem(sim, "mem", 120e9);
    sim::FairShareResource::Flow *a = mem.createFlow("a");
    sim::FairShareResource::Flow *b = mem.createFlow("b");
    int done = 0;
    auto round = [&]() {
        a->transfer(64 * 1024, [&done]() { ++done; });
        for (Tick i = 1; i <= 16; ++i)
            sim.schedule(i * 10_ns, [b, &done]() {
                b->transfer(64, [&done]() { ++done; });
            });
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(done, 34);
}

TEST(HotPathAllocs, HotBlockCacheOperations)
{
    // Timing-mode entries (no plaintext): once the slot array and the
    // index have grown to the cache's peak entry count, lookups, inserts,
    // invalidations and the evictions an insert makes allocate nothing.
    middletier::HotBlockCache cache(8 * 4096);
    const auto entry = []() {
        return middletier::HotBlockCache::Entry{4096, 0.5, nullptr};
    };
    for (std::uint64_t i = 0; i < 16; ++i)
        cache.insert(1, i * 4096, entry());
    for (std::uint64_t i = 0; i < 16; ++i)
        cache.invalidate(1, i * 4096);
    for (std::uint64_t i = 0; i < 8; ++i)
        cache.insert(1, i * 4096, entry());

    int hits = 0;
    EXPECT_EQ(allocationsDuring([&]() {
                  for (std::uint64_t i = 0; i < 8; ++i) {
                      hits += cache.lookup(1, i * 4096) != nullptr;
                      hits += cache.lookup(2, i * 4096) != nullptr;
                  }
              }),
              0u);
    EXPECT_EQ(hits, 8);
    EXPECT_EQ(allocationsDuring([&]() {
                  for (std::uint64_t i = 0; i < 8; ++i)
                      cache.invalidate(1, i * 4096);
              }),
              0u);
    EXPECT_EQ(allocationsDuring([&]() {
                  for (std::uint64_t i = 0; i < 8; ++i)
                      cache.insert(1, i * 4096, entry());
              }),
              0u);
    const std::uint64_t evictions = cache.stats().evictions;
    EXPECT_EQ(allocationsDuring([&]() {
                  for (std::uint64_t i = 8; i < 16; ++i)
                      cache.insert(1, i * 4096, entry());
              }),
              0u);
    EXPECT_EQ(cache.stats().evictions - evictions, 8u);
    EXPECT_EQ(cache.entries(), 8u);
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

sim::Process
awaitCompletion(sim::Completion done, std::uint64_t &sum)
{
    sum += co_await done;
}

TEST(HotPathAllocs, CompletionAwaitedByAProcess)
{
    sim::Simulator sim;
    std::uint64_t sum = 0;
    // A Completion copied into a producer's callback and awaited by a
    // process: its state and the process frame come from the pools.
    auto round = [&]() {
        for (int i = 0; i < 16; ++i) {
            sim::Completion done(sim);
            sim::spawn(sim, awaitCompletion(done, sum));
            sim.schedule(10_ns, [done]() mutable { done.complete(1); });
        }
        sim.run();
    };
    round(); // warm-up: fills the block pool and the event slab
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(sum, 32u);
}

sim::Process
joinLatch(sim::CountLatch &latch, int &joined)
{
    co_await latch.wait();
    ++joined;
}

TEST(HotPathAllocs, CountLatchJoin)
{
    sim::Simulator sim;
    int joined = 0;
    // "Wait for all three replica acks": three arrivals, one waiter.
    auto round = [&]() {
        sim::CountLatch latch(sim, 3);
        sim::spawn(sim, joinLatch(latch, joined));
        for (int i = 1; i <= 3; ++i)
            sim.schedule(i * 1_ns, [&latch]() { latch.arrive(); });
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(joined, 2);
}

sim::Process
sleepTwice(sim::Simulator &sim, int &finished)
{
    co_await sim::delay(sim, 5_ns);
    co_await sim::delay(sim, 1_ns);
    ++finished;
}

TEST(HotPathAllocs, SpawnedProcessRunsToCompletion)
{
    sim::Simulator sim;
    int finished = 0;
    auto round = [&]() {
        for (int i = 0; i < 16; ++i)
            sim::spawn(sim, sleepTwice(sim, finished));
        sim.run();
    };
    round(); // warm-up: the frames return to the pool as they finish
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(finished, 32);
}

sim::Task
sleepStep(sim::Simulator &sim)
{
    co_await sim::delay(sim, 3_ns);
}

sim::Process
awaitTwoSteps(sim::Simulator &sim, int &finished)
{
    co_await sleepStep(sim);
    co_await sleepStep(sim);
    ++finished;
}

TEST(HotPathAllocs, TaskAwaitedByAProcess)
{
    sim::Simulator sim;
    int finished = 0;
    // The middle tier's cost hooks: sub-steps a request coroutine awaits.
    auto round = [&]() {
        for (int i = 0; i < 16; ++i)
            sim::spawn(sim, awaitTwoSteps(sim, finished));
        sim.run();
    };
    round(); // warm-up: Task frames return to the pool as they finish
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(finished, 32);
}

TEST(HotPathAllocs, MultiDomainRoundWithSmallPosts)
{
    // A PDES round: each domain posts small-capture events to two others,
    // and the drain merges them into the destinations' queues between
    // rounds.
    static constexpr unsigned kDomains = 8;
    constexpr Tick kLookahead = 100;
    sim::ClusterSim cluster(kDomains, kLookahead);
    int delivered = 0;
    Tick start = 0;
    auto round = [&]() {
        for (unsigned d = 0; d < kDomains; ++d) {
            // simlint: allow(cross-shard-state): test plants initial
            // events on source domains before the cluster runs
            cluster.domain(d).scheduleAt(start + 1, [&cluster, &delivered,
                                                     d, start]() {
                for (unsigned k = 1; k <= 2; ++k)
                    cluster.post(d, (d + k) % kDomains,
                                 start + 1 + kLookahead,
                                 [&delivered]() { ++delivered; });
            });
        }
        start += 1000;
        cluster.runUntil(start);
    };
    round(); // warm-up: grows the channel and merge buffers
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(delivered, 2 * 2 * static_cast<int>(kDomains));
}

TEST(HotPathAllocs, CrossDomainHop)
{
    // Port sends between two timing domains: the message waits in the
    // source's parked table, the drain hands it to the destination's,
    // and the posted event names only the channel and the port.
    sim::ClusterSim cluster(2, calibration::networkOneWayDelay);
    net::Fabric fabric(cluster);
    net::Port *a = fabric.createPort("a");
    net::Port *b = nullptr;
    {
        const sim::DomainScope scope(1);
        b = fabric.createPort("b");
    }
    int received = 0;
    b->onReceive([&received](net::Message &&msg) {
        received += msg.payload.size == 4096;
    });
    Tick start = 0;
    auto round = [&]() {
        // simlint: allow(cross-shard-state): test plants the sends on the
        // source domain before the cluster runs
        cluster.domain(0).scheduleAt(start, [a, b]() {
            for (int i = 0; i < 16; ++i) {
                net::Message msg;
                msg.dst = b->id();
                msg.payload.size = 4096;
                a->send(std::move(msg));
            }
        });
        start += 100_us;
        cluster.runUntil(start);
    };
    round(); // warm-up: grows the port, channel and parked-table rings
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(received, 32);
}

TEST(HotPathAllocs, DmaCallbackCapturingSharedPointers)
{
    sim::Simulator sim;
    pcie::PcieLink link(sim, "pcie");
    pcie::DmaEngine dma(sim, "dma", nullptr, {&link.h2d()}, {&link.d2h()});
    auto a = std::make_shared<int>(0);
    auto b = std::make_shared<int>(0);
    // The device's split and assemble legs: each DMA completion holds
    // shared state, which std::function boxes on every call.
    auto round = [&]() {
        for (int i = 0; i < 8; ++i) {
            dma.read(4096, {}, [a, b](Tick) { ++*a; });
            dma.write(4096, {}, [a, b](Tick) { ++*b; });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(*a, 16);
    EXPECT_EQ(*b, 16);
}

TEST(HotPathAllocs, QueuedCorePoolItem)
{
    sim::Simulator sim;
    host::CorePool pool(sim, "cores", 2);
    std::uint64_t sum = 0;
    // A 40-byte capture, submitted while both cores are busy, so the
    // item waits in the pool's queue before it runs.
    struct Work
    {
        std::uint64_t *sum;
        std::array<std::uint64_t, 4> words;
    };
    static_assert(sizeof(Work) == 40);
    auto round = [&]() {
        for (std::uint64_t i = 0; i < 16; ++i) {
            Work w{&sum, {i, 1, 2, 3}};
            pool.execute(1_us, [w]() { *w.sum += w.words[0] + w.words[3]; });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(sum, 2 * (120u + 48u));
}

TEST(HotPathAllocs, PortSendCompletionCallback)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    net::Port *a = fabric.createPort("a");
    net::Port *b = fabric.createPort("b");
    b->onReceive([](net::Message) {});
    auto sent = std::make_shared<int>(0);
    auto round = [&]() {
        for (int i = 0; i < 16; ++i) {
            net::Message msg;
            msg.dst = b->id();
            msg.payload.size = 4096;
            a->send(std::move(msg), [sent]() { ++*sent; });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(*sent, 32);
}

TEST(HotPathAllocs, CompletionCallbackCapturingASharedPointer)
{
    sim::Simulator sim;
    auto total = std::make_shared<std::uint64_t>(0);
    // The ack forwarders: a plain callback on a Completion that may
    // never fire, holding shared state.
    auto round = [&]() {
        for (int i = 0; i < 16; ++i) {
            sim::Completion done(sim);
            done.onComplete([total](std::uint64_t v) { *total += v; });
            sim.schedule(10_ns, [done]() mutable { done.complete(2); });
        }
        sim.run();
    };
    round();
    EXPECT_EQ(allocationsDuring(round), 0u);
    EXPECT_EQ(*total, 64u);
}

/** Result of one run of the per-request allocation probe. */
struct RunCount
{
    std::uint64_t allocations = 0;
    std::uint64_t requests = 0;
};

RunCount
countRun(middletier::Design design, double read_fraction, Tick window)
{
    workload::ExperimentConfig config;
    config.design = design;
    config.readFraction = read_fraction;
    config.window = window;
    RunCount c;
    c.allocations = allocationsDuring([&]() {
        c.requests = workload::runWriteExperiment(config).requestsCompleted;
    });
    return c;
}

/**
 * Steady-state allocations per request of @p design: the allocations
 * and requests of a 15 ms window minus those of a 5 ms one, so setup,
 * warmup and teardown cancel out. A first, discarded 5 ms run fills the
 * thread's sim block pool, which both measured runs then start from.
 */
double
allocationsPerRequest(middletier::Design design, double read_fraction)
{
    countRun(design, read_fraction, 5_ms);
    const RunCount short_run = countRun(design, read_fraction, 5_ms);
    const RunCount long_run = countRun(design, read_fraction, 15_ms);
    EXPECT_GT(long_run.requests, short_run.requests);
    // Signed: once the request path allocates nothing, the longer run
    // may allocate a few fewer times than the shorter one (pools and
    // containers grow at different points).
    const double per_request =
        (static_cast<double>(long_run.allocations) -
         static_cast<double>(short_run.allocations)) /
        static_cast<double>(long_run.requests - short_run.requests);
    std::printf("  %-8s %3.0f%% reads: %6.2f allocations per request\n",
                middletier::designName(design), read_fraction * 100.0,
                per_request);
    return per_request;
}

TEST(HotPathAllocs, WriteRequestBudgetPerDesign)
{
    // SmartDS's request path runs through the device API (split, engine,
    // assemble per replica) and keeps its ack receives posted; the host
    // designs run one pooled coroutine per request.
    EXPECT_LE(allocationsPerRequest(middletier::Design::SmartDs, 0.0), 10.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::CpuOnly, 0.0), 5.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::Accelerator, 0.0),
              5.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::Bf2, 0.0), 5.0);
}

TEST(HotPathAllocs, ReadMixBudgetPerDesign)
{
    // Half reads share the write budgets: a read probes its chunk's
    // inline replica set (EC reads, the pool) and copies nothing per
    // read, per hop or per replica.
    EXPECT_LE(allocationsPerRequest(middletier::Design::SmartDs, 0.5), 10.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::CpuOnly, 0.5), 5.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::Accelerator, 0.5),
              5.0);
    EXPECT_LE(allocationsPerRequest(middletier::Design::Bf2, 0.5), 5.0);
}

} // namespace
} // namespace smartds
