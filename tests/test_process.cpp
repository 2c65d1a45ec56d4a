/**
 * @file
 * Unit tests for the coroutine process layer: delays, completions,
 * latches, awaitable adapters and Task sub-steps.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.h"
#include "sim/bandwidth_server.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::sim {
namespace {

using namespace smartds::time_literals;

TEST(Process, DelaySuspendsForExactTime)
{
    Simulator sim;
    Tick resumed = 0;
    spawn(sim, [](Simulator &s, Tick *out) -> Process {
        co_await delay(s, 250_ns);
        *out = s.now();
    }(sim, &resumed));
    sim.run();
    EXPECT_EQ(resumed, 250_ns);
}

TEST(Process, SequentialDelaysAccumulate)
{
    Simulator sim;
    Tick resumed = 0;
    spawn(sim, [](Simulator &s, Tick *out) -> Process {
        co_await delay(s, 100_ns);
        co_await delay(s, 100_ns);
        co_await delay(s, 100_ns);
        *out = s.now();
    }(sim, &resumed));
    sim.run();
    EXPECT_EQ(resumed, 300_ns);
}

TEST(Process, CompletionWakesWaiter)
{
    Simulator sim;
    Completion c(sim);
    std::uint64_t got = 0;
    spawn(sim, [](Completion c, std::uint64_t *out) -> Process {
        *out = co_await c;
    }(c, &got));
    sim.schedule(1_us, [c]() mutable { c.complete(77); });
    sim.run();
    EXPECT_EQ(got, 77u);
    EXPECT_TRUE(c.done());
}

TEST(Process, AwaitingCompletedCompletionDoesNotSuspend)
{
    Simulator sim;
    Completion c(sim);
    c.complete(5);
    std::uint64_t got = 0;
    Tick when = 999;
    spawn(sim, [](Simulator &s, Completion c, std::uint64_t *out,
                  Tick *t) -> Process {
        *out = co_await c;
        *t = s.now();
    }(sim, c, &got, &when));
    sim.run();
    EXPECT_EQ(got, 5u);
    EXPECT_EQ(when, 0u);
}

TEST(Process, MultipleWaitersAllWake)
{
    Simulator sim;
    Completion c(sim);
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        spawn(sim, [](Completion c, int *n) -> Process {
            co_await c;
            ++*n;
        }(c, &woken));
    }
    sim.schedule(10_ns, [c]() mutable { c.complete(0); });
    sim.run();
    EXPECT_EQ(woken, 5);
}

TEST(Process, CountLatchWaitsForAllArrivals)
{
    Simulator sim;
    auto latch = std::make_shared<CountLatch>(sim, 3);
    Tick done = 0;
    spawn(sim, [](Simulator &s, Completion c, Tick *out) -> Process {
        co_await c;
        *out = s.now();
    }(sim, latch->wait(), &done));
    sim.schedule(10_ns, [latch]() { latch->arrive(); });
    sim.schedule(20_ns, [latch]() { latch->arrive(); });
    sim.schedule(30_ns, [latch]() { latch->arrive(); });
    sim.run();
    EXPECT_EQ(done, 30_ns);
}

TEST(Process, ZeroCountLatchIsImmediatelyDone)
{
    Simulator sim;
    CountLatch latch(sim, 0);
    EXPECT_TRUE(latch.wait().done());
}

TEST(Process, LatchCompletionOutlivesLatchObject)
{
    Simulator sim;
    Completion waiter = [](Simulator &s) {
        auto latch = std::make_shared<CountLatch>(s, 1);
        Completion c = latch->wait();
        s.schedule(5_ns, [latch]() { latch->arrive(); });
        return c; // latch dies when the event releases it
    }(sim);
    bool woke = false;
    spawn(sim, [](Completion c, bool *out) -> Process {
        co_await c;
        *out = true;
    }(waiter, &woke));
    sim.run();
    EXPECT_TRUE(woke);
}

TEST(Process, TransferAsyncOnBandwidthServer)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    Tick done = 0;
    std::uint64_t bytes = 0;
    spawn(sim, [](Simulator &s, BandwidthServer *srv, Tick *t,
                  std::uint64_t *b) -> Process {
        *b = co_await transferAsync(s, *srv, 2000);
        *t = s.now();
    }(sim, &server, &done, &bytes));
    sim.run();
    EXPECT_EQ(done, 2_us);
    EXPECT_EQ(bytes, 2000u);
}

TEST(Process, TimerAsyncFiresOnce)
{
    Simulator sim;
    Tick done = 0;
    spawn(sim, [](Simulator &s, Tick *t) -> Process {
        co_await timerAsync(s, 42_ns);
        *t = s.now();
    }(sim, &done));
    sim.run();
    EXPECT_EQ(done, 42_ns);
}

TEST(Process, ParallelAwaitViaTwoCompletions)
{
    Simulator sim;
    BandwidthServer fast(sim, "fast", 2e9);
    BandwidthServer slow(sim, "slow", 1e9);
    Tick done = 0;
    spawn(sim, [](Simulator &s, BandwidthServer *a, BandwidthServer *b,
                  Tick *t) -> Process {
        auto ca = transferAsync(s, *a, 1000); // 500 ns
        auto cb = transferAsync(s, *b, 1000); // 1000 ns
        co_await ca;
        co_await cb;
        *t = s.now();
    }(sim, &fast, &slow, &done));
    sim.run();
    // Both started together; total is the max, not the sum.
    EXPECT_EQ(done, 1_us);
}

/** Two delays as one sub-step. */
Task
sleepTwice(Simulator &sim)
{
    co_await delay(sim, 10_ns);
    co_await delay(sim, 20_ns, EventTag::Host);
}

Process
awaitSleepTwice(Simulator &sim, Tick *out)
{
    co_await sleepTwice(sim);
    *out = sim.now();
}

/** sleepTwice()'s body written inline. */
Process
inlineSleepTwice(Simulator &sim, Tick *out)
{
    co_await delay(sim, 10_ns);
    co_await delay(sim, 20_ns, EventTag::Host);
    *out = sim.now();
}

TEST(Task, AwaitedTaskAddsNoEvent)
{
    // Entering the Task and returning to the caller are direct
    // transfers: the event stream is the inlined body's, event for event.
    Simulator split;
    Simulator flat;
    split.enableStateHash(true);
    flat.enableStateHash(true);
    Tick split_done = 0;
    Tick flat_done = 0;
    spawn(split, awaitSleepTwice(split, &split_done));
    spawn(flat, inlineSleepTwice(flat, &flat_done));
    split.run();
    flat.run();
    EXPECT_EQ(split_done, 30_ns);
    EXPECT_EQ(split_done, flat_done);
    EXPECT_EQ(split.eventsExecuted(), 3u); // spawn + two delays
    EXPECT_EQ(split.eventsExecuted(), flat.eventsExecuted());
    EXPECT_EQ(split.stateHash(), flat.stateHash());
}

Task
innerStep(Simulator &sim, std::vector<int> &log)
{
    log.push_back(2);
    co_await delay(sim, 5_ns);
    log.push_back(3);
}

Task
middleStep(Simulator &sim, std::vector<int> &log)
{
    log.push_back(1);
    co_await innerStep(sim, log);
    co_await innerStep(sim, log);
    log.push_back(4);
}

Process
outerProcess(Simulator &sim, std::vector<int> &log, Tick *out)
{
    log.push_back(0);
    co_await middleStep(sim, log);
    log.push_back(5);
    *out = sim.now();
}

TEST(Task, NestedTasksRunInOrder)
{
    Simulator sim;
    std::vector<int> log;
    Tick done = 0;
    spawn(sim, outerProcess(sim, log, &done));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 2, 3, 4, 5}));
    EXPECT_EQ(done, 10_ns);
    EXPECT_EQ(sim.eventsExecuted(), 3u); // spawn + two inner delays
}

Task
countStep(int &steps)
{
    ++steps;
    co_return;
}

Process
awaitCountSteps(Simulator &sim, int &steps, Tick *out)
{
    co_await delay(sim, 7_ns);
    co_await countStep(steps);
    co_await countStep(steps);
    *out = sim.now();
}

TEST(Task, TaskThatNeverSuspendsCostsNothing)
{
    // A Task with nothing to wait for runs and returns inside the
    // caller's own event: no simulated time and no event.
    Simulator sim;
    int steps = 0;
    Tick done = 0;
    spawn(sim, awaitCountSteps(sim, steps, &done));
    sim.run();
    EXPECT_EQ(steps, 2);
    EXPECT_EQ(done, 7_ns);
    EXPECT_EQ(sim.eventsExecuted(), 2u); // spawn + the delay
}

} // namespace
} // namespace smartds::sim
