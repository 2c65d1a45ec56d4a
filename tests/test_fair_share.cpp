/**
 * @file
 * Unit tests for the weighted fair-share resource: equal splits, caps,
 * water-filling redistribution, demand flows and transfer completion,
 * plus a pin of the exact completion stream over seeded random mixes.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/fair_share.h"
#include "sim/flat_map.h"
#include "sim/simulator.h"

namespace smartds::sim {
namespace {

using namespace smartds::time_literals;

/**
 * "f<i>", appended piece by piece: GCC 12 at -O3 reads "f" +
 * std::to_string(i) as an overlapping copy (-Werror=restrict).
 */
std::string
flowName(unsigned i)
{
    std::string name = "f";
    name += std::to_string(i);
    return name;
}

TEST(FairShare, SingleFlowGetsFullCapacity)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9); // 1 byte/ns
    auto *flow = res.createFlow("a");
    Tick done = 0;
    flow->transfer(1000, [&]() { done = sim.now(); });
    sim.run();
    // +1 tick scheduling guard allowed.
    EXPECT_NEAR(static_cast<double>(done), 1000.0 * 1000.0, 3.0);
}

TEST(FairShare, TwoEqualFlowsSplitCapacity)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *a = res.createFlow("a");
    auto *b = res.createFlow("b");
    Tick done_a = 0, done_b = 0;
    a->transfer(1000, [&]() { done_a = sim.now(); });
    b->transfer(1000, [&]() { done_b = sim.now(); });
    sim.run();
    // Both progress at half rate: ~2000 ns each.
    EXPECT_NEAR(static_cast<double>(done_a), 2000.0 * 1000.0, 5.0);
    EXPECT_NEAR(static_cast<double>(done_b), 2000.0 * 1000.0, 5.0);
}

TEST(FairShare, EarlyFinisherReleasesCapacity)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *a = res.createFlow("a");
    auto *b = res.createFlow("b");
    Tick done_a = 0, done_b = 0;
    a->transfer(500, [&]() { done_a = sim.now(); });
    b->transfer(1500, [&]() { done_b = sim.now(); });
    sim.run();
    // a: 500 bytes at 0.5 B/ns -> 1000 ns.
    EXPECT_NEAR(static_cast<double>(done_a), 1000.0 * 1000.0, 5.0);
    // b: 500 bytes shared (1000 ns) + remaining 1000 at full rate.
    EXPECT_NEAR(static_cast<double>(done_b), 2000.0 * 1000.0, 5.0);
}

TEST(FairShare, WeightsBiasAllocation)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *heavy = res.createFlow("heavy", 3.0);
    auto *light = res.createFlow("light", 1.0);
    Tick done_heavy = 0;
    heavy->transfer(750, [&]() { done_heavy = sim.now(); });
    light->transfer(10000, []() {});
    sim.runUntil(1_ms);
    // heavy gets 3/4 of capacity: 750 bytes at 0.75 B/ns -> 1000 ns.
    EXPECT_NEAR(static_cast<double>(done_heavy), 1000.0 * 1000.0, 5.0);
}

TEST(FairShare, RateCapLimitsAllocation)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *capped = res.createFlow("capped");
    capped->setRateCap(0.25e9);
    Tick done = 0;
    capped->transfer(1000, [&]() { done = sim.now(); });
    sim.run();
    EXPECT_NEAR(static_cast<double>(done), 4000.0 * 1000.0, 6.0);
}

TEST(FairShare, CapLeftoverRedistributedToElasticFlow)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *capped = res.createFlow("capped");
    capped->setRateCap(0.2e9);
    auto *elastic = res.createFlow("elastic");
    capped->transfer(100000, []() {});
    Tick done = 0;
    elastic->transfer(800, [&]() { done = sim.now(); });
    sim.runUntil(1_ms);
    // elastic gets 0.8 B/ns -> 1000 ns.
    EXPECT_NEAR(static_cast<double>(done), 1000.0 * 1000.0, 5.0);
}

TEST(FairShare, DemandFlowConsumesUtilization)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *hog = res.createFlow("hog");
    hog->setDemand(0.6e9);
    sim.runUntil(1_us);
    EXPECT_NEAR(res.utilization(), 0.6, 1e-9);
    EXPECT_NEAR(hog->allocatedRate(), 0.6e9, 1.0);
}

TEST(FairShare, DemandBeyondCapacityIsClamped)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *hog = res.createFlow("hog");
    hog->setDemand(5e9);
    sim.runUntil(1_us);
    EXPECT_NEAR(res.utilization(), 1.0, 1e-9);
    EXPECT_NEAR(hog->allocatedRate(), 1e9, 1.0);
}

TEST(FairShare, DemandFlowDeliveredBytesAccrue)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *hog = res.createFlow("hog");
    hog->setDemand(0.5e9);
    sim.schedule(10_us, []() {});
    sim.run();
    EXPECT_NEAR(hog->deliveredBytes(), 5000.0, 1.0);
}

TEST(FairShare, TransferFlowStarvedByDemandStillProgresses)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *hog = res.createFlow("hog");
    hog->setDemand(10e9); // wants 10x the capacity
    auto *dma = res.createFlow("dma");
    Tick done = 0;
    dma->transfer(1000, [&]() { done = sim.now(); });
    sim.runUntil(1_ms);
    // Fair split: dma gets half -> 2000 ns.
    EXPECT_NEAR(static_cast<double>(done), 2000.0 * 1000.0, 6.0);
}

TEST(FairShare, FifoWithinFlow)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *flow = res.createFlow("a");
    Tick first = 0, second = 0;
    flow->transfer(500, [&]() { first = sim.now(); });
    flow->transfer(500, [&]() { second = sim.now(); });
    sim.run();
    EXPECT_LT(first, second);
    EXPECT_NEAR(static_cast<double>(second), 1000.0 * 1000.0, 6.0);
}

TEST(FairShare, ZeroByteTransferCompletesImmediately)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *flow = res.createFlow("a");
    bool fired = false;
    flow->transfer(0, [&]() { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 0u);
}

TEST(FairShare, UtilizationDropsWhenFlowsGoIdle)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    auto *flow = res.createFlow("a");
    flow->transfer(1000, []() {});
    sim.run();
    EXPECT_NEAR(res.utilization(), 0.0, 1e-9);
}

TEST(FairShare, ConservationAcrossManyFlows)
{
    Simulator sim;
    FairShareResource res(sim, "mem", 1e9);
    constexpr int flows = 8;
    constexpr Bytes bytes = 1000;
    int completed = 0;
    for (int i = 0; i < flows; ++i) {
        auto *f = res.createFlow(flowName(static_cast<unsigned>(i)));
        f->transfer(bytes, [&]() { ++completed; });
    }
    sim.run();
    EXPECT_EQ(completed, flows);
    // All 8000 bytes at 1 B/ns -> total 8 us regardless of sharing.
    EXPECT_NEAR(static_cast<double>(sim.now()), 8000.0 * 1000.0, 20.0);
}

/** Mix @p value into the running pin hash @p hash. */
void
fold(std::uint64_t &hash, std::uint64_t value)
{
    hash = mixBits(hash ^ value) + 0x9e3779b97f4a7c15ULL;
}

void
foldDouble(std::uint64_t &hash, double value)
{
    fold(hash, std::bit_cast<std::uint64_t>(value));
}

/**
 * One seeded random mix on one resource: @p flows flows (the first always
 * a transfer flow, each later one a transfer or a background-demand flow)
 * with unequal weights, some rate-capped; 300 actions over the first
 * 200 us (transfers of 0-64 KiB, bursts of one size on every transfer
 * flow at once, rate-cap and demand changes, some of them to the value
 * already set); and a quarter of the completions issuing a follow-up
 * transfer from inside their callback. Caps and demands are odd
 * fractions of the capacity, so water-filling's sums round, and a
 * burst's equal-weight flows finish in the same update, so completions
 * depend on the order flows are visited in. Returns one hash over every
 * completion's transfer id, completion ordinal and tick, every flow's
 * deliveredBytes() and allocatedRate() and the resource's utilization()
 * at probe ticks every 4 us, and the end state: each flow's delivered
 * bytes, the final tick and the kernel's state hash.
 */
std::uint64_t
pinnedMixHash(std::uint64_t seed, unsigned flows)
{
    using Flow = FairShareResource::Flow;
    Simulator sim;
    sim.enableStateHash(true);
    Rng rng(seed);
    const double capacity = 1e9 * static_cast<double>(1 + rng.below(64));
    FairShareResource res(sim, "mem", capacity);

    constexpr std::array<double, 6> weights{0.7, 1.0, 1.0, 1.0, 1.9, 2.9};
    auto fraction = [&rng, capacity](double lo, double span) {
        return capacity * (lo + span * rng.uniform());
    };
    const std::array<double, 4> caps{std::numeric_limits<double>::infinity(),
                                     fraction(0.05, 0.2), fraction(0.2, 0.3),
                                     fraction(0.4, 0.5)};
    const std::array<double, 4> demands{0.0, fraction(0.1, 0.4),
                                        fraction(0.5, 0.6), 2.0 * capacity};
    std::vector<Flow *> all;
    std::vector<Flow *> transfers;
    std::vector<Flow *> demanders;
    for (unsigned i = 0; i < flows; ++i) {
        Flow *f =
            res.createFlow(flowName(i), weights[rng.below(weights.size())]);
        all.push_back(f);
        if (i > 0 && rng.below(4) == 0)
            demanders.push_back(f);
        else
            transfers.push_back(f);
        if (rng.below(3) == 0)
            f->setRateCap(caps[1 + rng.below(caps.size() - 1)]);
    }
    for (Flow *f : demanders)
        f->setDemand(demands[rng.below(demands.size())]);

    std::uint64_t hash = seed;
    std::uint64_t next_id = 0;
    std::uint64_t completed = 0;
    constexpr std::uint64_t kTransferBudget = 600;
    auto draw_bytes = [&rng]() -> Bytes {
        return rng.below(8) == 0 ? 0 : rng.below(64 * 1024 + 1);
    };
    std::function<void(Flow *, Bytes)> issue = [&](Flow *f, Bytes bytes) {
        const std::uint64_t id = next_id++;
        f->transfer(bytes, [&, id]() {
            fold(hash, id);
            fold(hash, completed++);
            fold(hash, sim.now());
            if (rng.below(4) == 0 && next_id < kTransferBudget)
                issue(transfers[rng.below(transfers.size())], draw_bytes());
        });
    };

    for (int i = 0; i < 300; ++i) {
        const Tick when = rng.below(200) * 1_us + rng.below(1000) * 1_ns;
        const unsigned kind = static_cast<unsigned>(rng.below(10));
        if (kind < 5) {
            Flow *f = transfers[rng.below(transfers.size())];
            const Bytes bytes = draw_bytes();
            sim.scheduleAt(when, [&issue, f, bytes]() { issue(f, bytes); });
        } else if (kind < 6) {
            const Bytes bytes = 1 + rng.below(16 * 1024);
            sim.scheduleAt(when, [&issue, &transfers, bytes]() {
                for (Flow *f : transfers)
                    issue(f, bytes);
            });
        } else if (kind < 8 || demanders.empty()) {
            Flow *f = all[rng.below(all.size())];
            const double cap = caps[rng.below(caps.size())];
            sim.scheduleAt(when, [f, cap]() { f->setRateCap(cap); });
        } else {
            Flow *f = demanders[rng.below(demanders.size())];
            const double demand = demands[rng.below(demands.size())];
            sim.scheduleAt(when, [f, demand]() { f->setDemand(demand); });
        }
    }
    for (Tick probe = 0; probe <= 240_us; probe += 4_us) {
        sim.scheduleAt(probe, [&]() {
            fold(hash, sim.now());
            for (const Flow *f : all) {
                foldDouble(hash, f->deliveredBytes());
                foldDouble(hash, f->allocatedRate());
            }
            foldDouble(hash, res.utilization());
        });
    }
    sim.run();

    EXPECT_EQ(completed, next_id) << "seed " << seed;
    for (const Flow *f : all)
        foldDouble(hash, f->deliveredBytes());
    fold(hash, sim.now());
    fold(hash, sim.stateHash());
    return hash;
}

/**
 * Pins FairShare's completion stream, bit for bit, over 24 seeded mixes
 * of 1 to 12 flows (each count twice). test_design_hashes covers the
 * resources the designs build, which never hold more than six flows, a
 * demand change or a rate cap; this pin covers what they leave out. A
 * change to the resource that keeps its results (which flows it visits,
 * when it re-runs water-filling, how it moves its completion timer)
 * leaves every row unchanged. On a mismatch the test prints the whole
 * table in source form.
 */
TEST(FairSharePin, CompletionStreamOverRandomMixes)
{
    constexpr std::array<std::uint64_t, 24> pinned{
        0x3d3056cb65282293ULL, 0x485e3e192cbb5862ULL, 0xaa76f1afd59a3fcfULL,
        0x0082b9d9ae020813ULL, 0x26d0fa48ce7d23feULL, 0xbdd712bb2a973448ULL,
        0xf07e3291fae7febfULL, 0xe14e46573985934eULL, 0x3e3cc049a4fbce7fULL,
        0x04b838c2d276a010ULL, 0x9379c8929ef41858ULL, 0x762623059d78ffadULL,
        0xe30789babe1e7d1aULL, 0x48c3efa4eacd54b9ULL, 0xd93e238a17960b55ULL,
        0xc5811b524598cafeULL, 0x052b8cf3d183f1acULL, 0x194f7b85833881a1ULL,
        0x414c90e55d5f5bd7ULL, 0xb994a0c93cccafc0ULL, 0x8b67b56075aca7c8ULL,
        0x1ffdd82a4591e869ULL, 0x10c9f2f064a75badULL, 0x5029534b1faf13a8ULL,
    };
    std::array<std::uint64_t, pinned.size()> got{};
    for (std::size_t i = 0; i < pinned.size(); ++i)
        got[i] = pinnedMixHash(i + 1, 1 + static_cast<unsigned>(i % 12));
    for (std::size_t i = 0; i < pinned.size(); ++i)
        EXPECT_EQ(got[i], pinned[i])
            << "seed " << i + 1 << ", " << 1 + i % 12 << " flows";
    if (got != pinned) {
        std::printf("    constexpr std::array<std::uint64_t, %zu> pinned{\n",
                    got.size());
        for (std::size_t i = 0; i < got.size(); i += 3)
            std::printf("        0x%016" PRIx64 "ULL, 0x%016" PRIx64
                        "ULL, 0x%016" PRIx64 "ULL,\n",
                        got[i], got[i + 1], got[i + 2]);
        std::printf("    };\n");
    }
}

} // namespace
} // namespace smartds::sim
