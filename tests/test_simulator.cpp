/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, cancellation,
 * deterministic tie-breaking, run-until semantics, and a seeded
 * differential test against a reference model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace smartds::sim {
namespace {

using namespace smartds::time_literals;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30_ns, [&]() { order.push_back(3); });
    sim.schedule(10_ns, [&]() { order.push_back(1); });
    sim.schedule(20_ns, [&]() { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Simulator, SameTickEventsFireInSchedulingOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(5_ns, [&order, i]() { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromCallbacks)
{
    Simulator sim;
    std::vector<Tick> times;
    sim.schedule(10_ns, [&]() {
        times.push_back(sim.now());
        sim.schedule(5_ns, [&]() { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10_ns);
    EXPECT_EQ(times[1], 15_ns);
}

TEST(Simulator, ZeroDelayEventFiresAtCurrentTime)
{
    Simulator sim;
    bool fired = false;
    sim.schedule(7_ns, [&]() {
        sim.schedule(0, [&]() {
            fired = true;
            EXPECT_EQ(sim.now(), 7_ns);
        });
    });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    EventHandle h = sim.schedule(10_ns, [&]() { fired = true; });
    EXPECT_TRUE(h.pending());
    EXPECT_TRUE(h.cancel());
    EXPECT_FALSE(h.pending());
    sim.run();
    EXPECT_FALSE(fired);
    // Cancelling twice is a no-op.
    EXPECT_FALSE(h.cancel());
}

TEST(Simulator, CancelAfterFiringFails)
{
    Simulator sim;
    EventHandle h = sim.schedule(1_ns, []() {});
    sim.run();
    EXPECT_FALSE(h.cancel());
    EXPECT_FALSE(h.pending());
}

TEST(Simulator, DefaultEventHandleIsInert)
{
    EventHandle h;
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        sim.schedule(t * 1_us, [&]() { ++count; });
    sim.runUntil(5_us);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(sim.now(), 5_us);
    sim.runUntil(10_us);
    EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockWithEmptyQueue)
{
    Simulator sim;
    sim.runUntil(42_us);
    EXPECT_EQ(sim.now(), 42_us);
}

TEST(Simulator, EventsExecutedCountsOnlyFired)
{
    Simulator sim;
    sim.schedule(1_ns, []() {});
    EventHandle h = sim.schedule(2_ns, []() {});
    h.cancel();
    sim.schedule(3_ns, []() {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 2u);
}

TEST(Simulator, StepReturnsFalseWhenEmpty)
{
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.schedule(1_ns, []() {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventPoolReusesSlots)
{
    Simulator sim;
    // A fire-then-schedule chain keeps at most a couple of events alive
    // at once; slot recycling must keep the pool at that size instead of
    // growing with the total number of events ever scheduled.
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 10000)
            sim.schedule(1_ns, [&chain]() { chain(); });
    };
    sim.schedule(1_ns, [&chain]() { chain(); });
    sim.run();
    EXPECT_EQ(fired, 10000);
    EXPECT_LE(sim.eventPoolSlots(), 4u);
}

TEST(Simulator, StaleHandleCannotCancelReusedSlot)
{
    Simulator sim;
    EventHandle first = sim.schedule(1_ns, []() {});
    sim.run(); // fires, recycling the slot
    EXPECT_FALSE(first.pending());

    // The next event reuses the same pool slot; the stale handle's
    // generation no longer matches, so it must not be able to touch it.
    bool fired = false;
    EventHandle second = sim.schedule(1_ns, [&]() { fired = true; });
    EXPECT_EQ(sim.eventPoolSlots(), 1u); // same slot, recycled
    EXPECT_FALSE(first.pending());
    EXPECT_FALSE(first.cancel());
    EXPECT_TRUE(second.pending());
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledSlotReusePreservesSameTickFifo)
{
    Simulator sim;
    // Cancel events in the middle of a same-tick batch, schedule more at
    // the same tick (reusing the cancelled slots), and check that firing
    // order is still exactly scheduling order of the survivors.
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(
            sim.schedule(5_ns, [&order, i]() { order.push_back(i); }));
    EXPECT_TRUE(handles[2].cancel());
    EXPECT_TRUE(handles[5].cancel());
    for (int i = 8; i < 12; ++i)
        sim.schedule(5_ns, [&order, i]() { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 6, 7, 8, 9, 10, 11}));
}

TEST(Simulator, CancellingEveryEventEmptiesTheQueue)
{
    // A cancel unlinks its event at once; once every event is cancelled
    // the queue holds nothing, and the kernel carries on from there.
    Simulator sim;
    std::vector<EventHandle> timers;
    for (int i = 0; i < 5; ++i)
        timers.push_back(sim.schedule((i + 1) * 1_us, []() {}));
    for (EventHandle &h : timers)
        EXPECT_TRUE(h.cancel());
    EXPECT_EQ(sim.heapEntries(), 0u);
    bool fired = false;
    sim.schedule(2_us, [&]() { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 2_us);
}

TEST(Simulator, PendingEventsCountsLiveEventsOnly)
{
    Simulator sim;
    EventHandle far = sim.schedule(10_ns, []() {});
    EventHandle now = sim.schedule(0, []() {});
    sim.schedule(5_ns, []() {});
    EXPECT_EQ(sim.pendingEvents(), 3u);
    EXPECT_TRUE(far.cancel());
    EXPECT_TRUE(now.cancel());
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventTick(), 5_ns);
    sim.run();
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.nextEventTick(), Simulator::kNoPendingEvent);
}

TEST(Simulator, PeekDoesNotMoveTheQueueBase)
{
    // The channel-drain shape: a runUntil() that stops at its deadline
    // and a peek at the next tick, then schedules below that tick. They
    // must still fire first, in tick order.
    Simulator sim;
    std::vector<Tick> fired;
    auto record = [&]() { fired.push_back(sim.now()); };
    sim.schedule(1_ns, record);
    sim.schedule(1_us, record);
    sim.runUntil(10_ns);
    EXPECT_EQ(sim.nextEventTick(), 1_us);
    sim.schedule(0, record);      // at the deadline, 10 ns
    sim.schedule(500_ns, record); // below the peeked tick
    sim.scheduleAt(1_us - 1, record);
    sim.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1_ns, 10_ns, 510_ns, 1_us - 1,
                                        1_us}));
}

TEST(Simulator, TagCountersCountDispatchesPerTag)
{
    Simulator sim;
    sim.schedule(1_ns, []() {}, EventTag::Net);
    sim.schedule(2_ns, []() {}, EventTag::Net);
    sim.schedule(0, []() {}, EventTag::Host);
    sim.schedule(3_ns, []() {});
    EventHandle cancelled = sim.schedule(4_ns, []() {}, EventTag::Net);
    EXPECT_TRUE(cancelled.cancel());
    sim.run();
    TagCounts expected{};
    expected[static_cast<std::size_t>(EventTag::Generic)] = 1;
    expected[static_cast<std::size_t>(EventTag::Net)] = 2;
    expected[static_cast<std::size_t>(EventTag::Host)] = 1;
    EXPECT_EQ(sim.tagEventsExecuted(), expected);
    EXPECT_EQ(sim.eventsExecuted(), 4u);
    EXPECT_STREQ(eventTagName(EventTag::Maintenance), "maintenance");
}

/**
 * Differential test of the kernel against a std::set<(tick, seq)>
 * reference model. Random schedules (a third of them zero-delay, most
 * issued from inside callbacks), cancels of same-tick and later entries,
 * bursts of cancelled timers, runUntil() deadlines, ticks straddling
 * 2^k boundaries, events milliseconds to seconds ahead, a runUntil()
 * that stops short of the next event followed by schedules below the
 * tick peeked at (the shape of PDES channel drains), cancels of the
 * current minimum, and re-keys (rescheduleAt) of live and stale handles
 * must all dispatch exactly in model order. In the model a re-key erases
 * (tick, seq) and inserts (when, next seq). The peek is checked against
 * the model after every step, so a bucket's cached earliest tick is
 * checked too, also right after a cancel or a re-key removed it.
 */
TEST(Simulator, DispatchOrderMatchesReferenceModel)
{
    using Key = std::pair<Tick, std::uint64_t>;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Simulator sim;
        Rng rng(seed);
        std::set<Key> model; // pending (tick, schedule order)
        std::vector<std::pair<EventHandle, Key>> handles;
        std::map<Key, EventHandle> handleOf;
        std::uint64_t next_id = 0;
        std::uint64_t fired = 0;
        std::uint64_t mismatches = 0;
        constexpr std::uint64_t kBudget = 6000;

        std::function<EventHandle(Tick)> add = [&](Tick delay) {
            const Key key{sim.now() + delay, next_id++};
            model.insert(key);
            // The event's current key: a re-key changes it in place.
            const std::size_t index = handles.size();
            EventHandle h = sim.schedule(delay, [&, index]() {
                const Key key = handles[index].second;
                if (model.empty() || *model.begin() != key ||
                    sim.now() != key.first)
                    ++mismatches;
                model.erase(key);
                ++fired;
                const unsigned n = static_cast<unsigned>(rng.below(4));
                for (unsigned i = 0; i < n && next_id < kBudget; ++i)
                    add(rng.below(3) == 0 ? 0 : rng.below(60) * 1_ns);
                if (rng.below(5) == 0 && next_id < kBudget) {
                    // A same-tick lane entry, cancelled at once.
                    const Key lane_key{sim.now(), next_id};
                    EXPECT_TRUE(add(0).cancel());
                    model.erase(lane_key);
                }
            });
            handles.emplace_back(h, key);
            handleOf[key] = h;
            return h;
        };
        // Schedule at an absolute tick, through the same bookkeeping.
        auto add_at = [&](Tick when) { return add(when - sim.now()); };
        auto cancel_random = [&]() {
            auto &[h, key] = handles[rng.below(handles.size())];
            const bool was_pending = model.erase(key) == 1;
            EXPECT_EQ(h.pending(), was_pending);
            EXPECT_EQ(h.cancel(), was_pending);
        };

        for (int i = 0; i < 20; ++i)
            add(rng.below(100) * 1_ns);
        while (next_id < kBudget) {
            switch (rng.below(9)) {
              case 0: {
                const Tick deadline = sim.now() + rng.below(300) * 1_ns;
                sim.runUntil(deadline);
                EXPECT_EQ(sim.now(), deadline);
                EXPECT_TRUE(model.empty() || model.begin()->first > deadline);
                break;
              }
              case 1:
                for (int i = 0; i < 8; ++i)
                    cancel_random();
                break;
              case 2:
                // A burst of long timers, nearly all cancelled: the shape
                // of replica-ack timeouts. A cancel leaves nothing behind
                // in the queue.
                for (int i = 0; i < 64; ++i)
                    add(2_us + rng.below(1000) * 1_ns);
                for (int i = 0; i < 60; ++i)
                    cancel_random();
                {
                    const Key timer_key{sim.now() + 3_us, next_id};
                    EXPECT_TRUE(add(3_us).cancel());
                    model.erase(timer_key);
                }
                EXPECT_EQ(sim.heapEntries(), sim.pendingEvents());
                break;
              case 4: {
                // Ticks on both sides of a 2^k boundary, where the bucket
                // an event lands in changes.
                const unsigned k = 1 + static_cast<unsigned>(rng.below(40));
                const Tick edge = ((sim.now() >> k) + 1) << k;
                for (const Tick when : {edge - 1, edge, edge + 1, edge - 1})
                    add_at(when);
                break;
              }
              case 5:
                // Milliseconds to seconds ahead: high buckets that are
                // re-bucketed many times before they fire.
                add(1_ms * (1 + rng.below(999)));
                add(1_s * (1 + rng.below(3)) + rng.below(1000) * 1_ns);
                break;
              case 6: {
                // A runUntil() that stops short of the next event, then
                // schedules below the tick peeked at, as ClusterSim does
                // when it drains channel events into a domain.
                const Tick peeked = sim.nextEventTick();
                if (model.empty() || peeked <= sim.now())
                    break;
                const Tick deadline =
                    sim.now() + rng.below(peeked - sim.now());
                sim.runUntil(deadline);
                EXPECT_EQ(sim.now(), deadline);
                EXPECT_EQ(sim.nextEventTick(), peeked);
                add(0);
                for (int i = 0; i < 3; ++i)
                    add(rng.below(peeked - sim.now()));
                break;
              }
              case 7:
                // Cancel the current minimum, up to three times running.
                for (int i = 0; i < 3 && !model.empty(); ++i) {
                    const Key first = *model.begin();
                    EXPECT_TRUE(handleOf[first].cancel());
                    model.erase(first);
                }
                break;
              case 8: {
                // Re-key a random handle, live or stale, into the
                // same-tick lane, a few ns ahead, onto the current
                // minimum's tick or milliseconds ahead.
                auto &[h, key] = handles[rng.below(handles.size())];
                Tick when = sim.now();
                switch (rng.below(4)) {
                  case 0:
                    break;
                  case 1:
                    when += rng.below(60) * 1_ns;
                    break;
                  case 2:
                    if (!model.empty())
                        when = model.begin()->first;
                    break;
                  default:
                    when += 1_ms * (1 + rng.below(999));
                    break;
                }
                const bool was_pending = model.erase(key) == 1;
                EXPECT_EQ(sim.rescheduleAt(h, when), was_pending);
                EXPECT_EQ(h.pending(), was_pending);
                if (was_pending) {
                    handleOf.erase(key);
                    key = Key{when, next_id++};
                    model.insert(key);
                    handleOf[key] = h;
                }
                break;
              }
              default:
                if (!sim.step())
                    add(rng.below(10) * 1_ns);
                break;
            }
            EXPECT_EQ(sim.pendingEvents(), model.size());
            EXPECT_EQ(sim.nextEventTick(), model.empty()
                                               ? Simulator::kNoPendingEvent
                                               : model.begin()->first);
            if (model.empty())
                add(0);
        }
        sim.run();
        EXPECT_TRUE(model.empty()) << "seed " << seed;
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
        EXPECT_EQ(sim.eventsExecuted(), fired);
    }
}

/** What one re-key scenario dispatched, and what it peeked after each. */
struct ReKeyTrace
{
    std::vector<int> order;
    std::vector<Tick> peeks;
    std::uint32_t hash = 0;
    bool operator==(const ReKeyTrace &) const = default;
};

/**
 * A timer (id 0) at @p timer_at among events at 100 ns (ids 1 and 5),
 * 150 ns (3), 170 ns (4) and 2 us (8). Event 1 runs first at 100 ns: it
 * schedules event 6 for now, moves the timer to @p target with @p move,
 * and schedules event 7 for now. Runs to the end one step at a time.
 */
template <typename Move>
ReKeyTrace
runReKeyScenario(Tick timer_at, Tick target, Move move)
{
    Simulator sim;
    sim.enableStateHash(true);
    ReKeyTrace trace;
    auto mark = [&trace](int id) {
        return [&trace, id]() { trace.order.push_back(id); };
    };
    EventHandle timer;
    sim.scheduleAt(100_ns, [&]() {
        trace.order.push_back(1);
        sim.schedule(0, mark(6));
        move(sim, timer, target, mark(0));
        EXPECT_TRUE(timer.pending());
        sim.schedule(0, mark(7));
    });
    timer = sim.scheduleAt(timer_at, mark(0));
    sim.scheduleAt(100_ns, mark(5));
    sim.scheduleAt(150_ns, mark(3));
    sim.scheduleAt(170_ns, mark(4));
    sim.scheduleAt(2_us, mark(8));
    while (sim.step())
        trace.peeks.push_back(sim.nextEventTick());
    trace.hash = sim.stateHash();
    return trace;
}

/**
 * A re-key dispatches and hashes exactly as a cancel plus a schedule of
 * the same callable, onto each kind of target: the same-tick lane (the
 * timer joins bucket 0 behind event 6), its own tick while it is its
 * bucket's earliest (FairShare's common case), the bucket's cached
 * earliest tick while another event holds it, and a far bucket. The
 * peek after every dispatch checks each bucket's cached earliest tick.
 */
TEST(Simulator, ReKeyMatchesCancelPlusSchedule)
{
    auto rekey = [](Simulator &sim, EventHandle &h, Tick when, auto) {
        EXPECT_TRUE(sim.rescheduleAt(h, when));
    };
    auto cancel_and_schedule = [](Simulator &sim, EventHandle &h, Tick when,
                                  auto fn) {
        EXPECT_TRUE(h.cancel());
        h = sim.scheduleAt(when, std::move(fn));
    };
    struct Target
    {
        const char *name;
        Tick timerAt;
        Tick target;
    };
    for (const Target &t : {Target{"same-tick lane", 160_ns, 100_ns},
                            Target{"own tick, bucket minimum", 140_ns, 140_ns},
                            Target{"bucket's cached minimum", 160_ns, 150_ns},
                            Target{"far bucket", 160_ns, 5_ms}}) {
        const ReKeyTrace a = runReKeyScenario(t.timerAt, t.target, rekey);
        const ReKeyTrace b =
            runReKeyScenario(t.timerAt, t.target, cancel_and_schedule);
        EXPECT_EQ(a.order, b.order) << t.name;
        EXPECT_EQ(a.peeks, b.peeks) << t.name;
        EXPECT_EQ(a.hash, b.hash) << t.name;
        EXPECT_EQ(a.order.size(), 8u) << t.name;
    }
    // In the lane the timer runs behind everything already queued for now.
    const ReKeyTrace lane = runReKeyScenario(160_ns, 100_ns, rekey);
    EXPECT_EQ(lane.order, (std::vector<int>{1, 5, 6, 0, 7, 3, 4, 8}));
}

TEST(Simulator, ReKeyOfAStaleHandleChangesNothing)
{
    // Two simulators that differ only in the failed re-keys: the seq
    // counter, the queue and the hash must not see them.
    auto run = [](bool try_stale) {
        Simulator sim;
        sim.enableStateHash(true);
        int fired = 0;
        // Each simulator's first event: slot 0, generation 0 in both.
        sim.schedule(1_us, [&fired]() { ++fired; });
        Simulator other;
        const EventHandle foreign = other.schedule(10_ns, []() {});
        const EventHandle done = sim.schedule(10_ns, [&fired]() { ++fired; });
        EventHandle cancelled = sim.schedule(20_ns, [&fired]() { ++fired; });
        EXPECT_TRUE(cancelled.cancel());
        EXPECT_TRUE(sim.step());
        // Recycles the slots the stale handles point at.
        sim.schedule(30_ns, [&fired]() { ++fired; });
        sim.schedule(40_ns, [&fired]() { ++fired; });
        const std::size_t pending = sim.pendingEvents();
        const Tick next = sim.nextEventTick();
        if (try_stale) {
            EXPECT_FALSE(sim.rescheduleAt(done, sim.now()));
            EXPECT_FALSE(sim.rescheduleAt(cancelled, sim.now() + 1_ns));
            EXPECT_FALSE(sim.rescheduleAt(EventHandle{}, sim.now()));
            // The slot and generation of the live 1 us event here, but
            // issued by another simulator.
            EXPECT_FALSE(sim.rescheduleAt(foreign, sim.now()));
            EXPECT_FALSE(done.pending());
        }
        EXPECT_EQ(sim.pendingEvents(), pending);
        EXPECT_EQ(sim.nextEventTick(), next);
        sim.schedule(5_ns, [&fired]() { ++fired; });
        sim.run();
        EXPECT_EQ(fired, 5);
        return std::pair{sim.stateHash(), sim.now()};
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(Simulator, ManyEventsStressOrdering)
{
    Simulator sim;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 1000) * 1_ns;
        sim.scheduleAt(when, [&, when]() {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    sim.run();
    EXPECT_TRUE(monotonic);
}

} // namespace
} // namespace smartds::sim
