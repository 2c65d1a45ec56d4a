/**
 * @file
 * Tests for the conservative-PDES cluster kernel: config-time rejection
 * of zero-lookahead topologies, the deterministic (tick, srcDomain,
 * seq) merge of cross-domain events, fault delivery into the victim's
 * own timing domain, and the headline property every other test leans
 * on — experiment results are byte-identical whether the domains run
 * on one shard or many.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "net/fabric.h"
#include "sim/pdes.h"
#include "workload/experiment.h"

namespace smartds {
namespace {

using namespace smartds::time_literals;

TEST(PdesDeathTest, ZeroLookaheadRejectedAtConfigTime)
{
    EXPECT_DEATH(sim::ClusterSim(4, 0), "zero lookahead");
}

TEST(PdesDeathTest, FabricDelayBelowLookaheadRejected)
{
    sim::ClusterSim cluster(2, 100);
    EXPECT_DEATH(net::Fabric(cluster, 50), "below the cluster lookahead");
}

TEST(Pdes, SingleDomainNeedsNoLookahead)
{
    // The legacy configuration: one domain, zero lookahead, no rounds.
    sim::ClusterSim cluster(1, 0);
    int ran = 0;
    // simlint: allow(cross-shard-state): single-domain cluster — the
    // fetched domain is the only one, nothing can cross a boundary
    cluster.domain(0).scheduleAt(10, [&ran]() { ++ran; });
    cluster.runUntil(100);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(cluster.eventsExecuted(), 1u);
    EXPECT_EQ(cluster.roundsExecuted(), 0u);
}

TEST(Pdes, CrossDomainEventsMergeByTickSourceSeq)
{
    constexpr Tick kLookahead = 100;
    sim::ClusterSim cluster(3, kLookahead);

    // Execution order observed in domain 0. Sources post at ticks 5 and
    // 10; everything lands in [105, 110] after one lookahead hop.
    std::vector<std::pair<unsigned, int>> order;

    // Seed the source-domain timelines. Scheduling onto a domain sim
    // before the cluster runs is the sanctioned way to plant initial
    // events (the experiment harness does the same under DomainScope).
    // simlint: allow(cross-shard-state): test plants initial events on
    // source domains before the cluster starts running
    cluster.domain(2).scheduleAt(5, [&]() {
        cluster.post(2, 0, 5 + kLookahead,
                     [&order]() { order.emplace_back(2u, 0); });
    });
    // simlint: allow(cross-shard-state): test plants initial events on
    // source domains before the cluster starts running
    cluster.domain(1).scheduleAt(10, [&]() {
        // Two posts from the same source at the same arrival tick: the
        // per-channel seq must keep their relative order.
        cluster.post(1, 0, 10 + kLookahead,
                     [&order]() { order.emplace_back(1u, 0); });
        cluster.post(1, 0, 10 + kLookahead,
                     [&order]() { order.emplace_back(1u, 1); });
    });
    // simlint: allow(cross-shard-state): test plants initial events on
    // source domains before the cluster starts running
    cluster.domain(2).scheduleAt(10, [&]() {
        cluster.post(2, 0, 10 + kLookahead,
                     [&order]() { order.emplace_back(2u, 1); });
    });

    cluster.runUntil(1000);

    // Arrival tick dominates; at equal ticks the lower source domain
    // wins; within one source the channel seq preserves post order.
    const std::vector<std::pair<unsigned, int>> expected{
        {2u, 0}, {1u, 0}, {1u, 1}, {2u, 1}};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(cluster.crossEventsPosted(), 4u);
    EXPECT_EQ(cluster.domainEventsExecuted(0), 4u);
}

TEST(Pdes, ShardCountDoesNotChangeTheMergedOrder)
{
    // The same posting pattern executed with 1 and with 4 executor
    // threads must produce the same observation sequence.
    auto run = [](unsigned shards) {
        constexpr Tick kLookahead = 7;
        sim::ClusterSim cluster(4, kLookahead);
        cluster.setShards(shards);
        auto order = std::make_shared<std::vector<unsigned>>();
        for (unsigned d = 1; d < 4; ++d) {
            // simlint: allow(cross-shard-state): test plants initial
            // events on source domains before the cluster starts running
            cluster.domain(d).scheduleAt(3, [&cluster, d, order]() {
                cluster.post(d, 0, 3 + kLookahead,
                             [order, d]() { order->push_back(d); });
            });
        }
        cluster.runUntil(50);
        return *order;
    };
    const auto serial = run(1);
    const auto sharded = run(4);
    EXPECT_EQ(serial, (std::vector<unsigned>{1u, 2u, 3u}));
    EXPECT_EQ(serial, sharded);
}

TEST(Pdes, SparsePostsMergeByTickSourceSeq)
{
    // Eight domains, of which two post into a third: the drain visits only
    // the channels that hold events, and still merges by (tick, source,
    // seq), whatever order the sources posted in.
    struct Delivery
    {
        Tick tick;
        unsigned src;
        int seq;
        bool operator==(const Delivery &) const = default;
    };
    auto run = [](unsigned shards) {
        constexpr Tick kLookahead = 10;
        sim::ClusterSim cluster(8, kLookahead);
        cluster.setShards(shards);
        auto seen = std::make_shared<std::vector<Delivery>>();
        auto deliver = [&cluster, seen](unsigned src, int seq) {
            return [&cluster, seen, src, seq]() {
                seen->push_back({cluster.domain(5).now(), src, seq});
            };
        };
        // simlint: allow(cross-shard-state): test plants initial events on
        // source domains before the cluster starts running
        cluster.domain(6).scheduleAt(2, [&cluster, deliver]() {
            cluster.post(6, 5, 20, deliver(6, 0));
            cluster.post(6, 5, 20, deliver(6, 1));
            cluster.post(6, 5, 14, deliver(6, 2));
        });
        // simlint: allow(cross-shard-state): test plants initial events on
        // source domains before the cluster starts running
        cluster.domain(3).scheduleAt(4, [&cluster, deliver]() {
            cluster.post(3, 5, 20, deliver(3, 0));
        });
        cluster.runUntil(100);
        EXPECT_EQ(cluster.crossEventsPosted(), 4u);
        EXPECT_EQ(cluster.domainEventsExecuted(5), 4u);
        return *seen;
    };
    const std::vector<Delivery> expected{
        {14, 6, 2}, {20, 3, 0}, {20, 6, 0}, {20, 6, 1}};
    EXPECT_EQ(run(1), expected);
    EXPECT_EQ(run(4), expected);
}

TEST(Pdes, SetShardsAgainReplacesTheWorkerPool)
{
    // A second setShards() on a cluster that already has workers: every
    // domain must still run, each on exactly one thread, and the pool
    // must hold the new count. Growing a stale pool left domains unrun
    // (the round never ended); shrinking it ran domains on two threads.
    constexpr unsigned kDomains = 8;
    constexpr Tick kLookahead = 10;
    constexpr int kEvents = 50;
    for (const auto &[first, second] :
         {std::pair{2u, 4u}, std::pair{4u, 2u}}) {
        SCOPED_TRACE(testing::Message() << first << " then " << second);
        sim::ClusterSim cluster(kDomains, kLookahead);
        cluster.setShards(first);
        cluster.setShards(second);
        EXPECT_EQ(cluster.shards(), second);
        // Per domain: the threads that ran its events (written only by
        // the thread executing that domain) and a self-rescheduling
        // chain, one event per lookahead.
        std::vector<std::set<std::thread::id>> threads(kDomains);
        std::vector<int> ran(kDomains, 0);
        for (unsigned d = 0; d < kDomains; ++d) {
            struct Chain
            {
                sim::Simulator *sim;
                std::set<std::thread::id> *threads;
                int *ran;
                void
                operator()() const
                {
                    threads->insert(std::this_thread::get_id());
                    if (++*ran < kEvents)
                        sim->schedule(kLookahead, *this);
                }
            };
            // simlint: allow(cross-shard-state): test plants initial
            // events on every domain before the cluster starts running
            sim::Simulator &sim = cluster.domain(d);
            sim.scheduleAt(d, Chain{&sim, &threads[d], &ran[d]});
        }
        cluster.runUntil(kEvents * kLookahead + kDomains);
        std::set<std::thread::id> all;
        for (unsigned d = 0; d < kDomains; ++d) {
            EXPECT_EQ(ran[d], kEvents) << "domain " << d;
            EXPECT_EQ(threads[d].size(), 1u) << "domain " << d;
            all.insert(threads[d].begin(), threads[d].end());
        }
        EXPECT_EQ(all.size(), second);
    }
}

TEST(Pdes, RoundsEnterOnlyDomainsWithWork)
{
    // Domain 1 runs one event per lookahead from tick 0 to 90, domain 2
    // holds a single event at tick 55, domain 0 holds none. Each round
    // enters domain 1, one round also domain 2, and none domain 0; every
    // clock still ends at the deadline.
    constexpr Tick kLookahead = 10;
    for (const unsigned shards : {1u, 3u}) {
        SCOPED_TRACE(testing::Message() << shards << " shards");
        sim::ClusterSim cluster(3, kLookahead);
        cluster.setShards(shards);
        std::vector<Tick> fired1;
        Tick fired2 = 0;
        struct Chain
        {
            sim::Simulator *sim;
            std::vector<Tick> *fired;
            void
            operator()() const
            {
                fired->push_back(sim->now());
                if (fired->size() < 10)
                    sim->schedule(kLookahead, *this);
            }
        };
        // simlint: allow(cross-shard-state): test plants initial events on
        // the domains before the cluster starts running
        cluster.domain(1).scheduleAt(0, Chain{&cluster.domain(1), &fired1});
        // simlint: allow(cross-shard-state): test plants initial events on
        // the domains before the cluster starts running
        cluster.domain(2).scheduleAt(
            55, [&cluster, &fired2]() { fired2 = cluster.domain(2).now(); });
        cluster.runUntil(200);
        EXPECT_EQ(fired1.size(), 10u);
        EXPECT_EQ(fired1.back(), 90u);
        EXPECT_EQ(fired2, 55u);
        EXPECT_EQ(cluster.roundsExecuted(), 10u);
        EXPECT_EQ(cluster.domainsEntered(), 11u);
        for (unsigned d = 0; d < 3; ++d)
            EXPECT_EQ(cluster.domain(d).now(), 200u) << "domain " << d;
    }
}

TEST(Pdes, CrashExecutesInVictimsDomain)
{
    constexpr Tick kLookahead = 50;
    sim::ClusterSim cluster(2, kLookahead);
    faults::FaultInjector injector(cluster.domain(0));

    const net::NodeId victim = 7;
    injector.attachCluster(cluster, {{victim, 1u}});
    faults::FaultProfile *profile = injector.profile(victim);

    injector.scheduleCrash(victim, 200);
    injector.scheduleRecovery(victim, 400);
    cluster.runUntil(1000);

    EXPECT_FALSE(profile->crashed());
    EXPECT_EQ(profile->crashes(), 1u);
    EXPECT_EQ(injector.crashesInjected(), 1u);
    // Both one-shot transitions ran on the victim's own domain sim; the
    // injector's home domain executed nothing.
    EXPECT_EQ(cluster.domainEventsExecuted(1), 2u);
    EXPECT_EQ(cluster.domainEventsExecuted(0), 0u);
}

// --- experiment-level shard invariance --------------------------------------

workload::ExperimentConfig
smokeConfig()
{
    workload::ExperimentConfig config;
    config.design = middletier::Design::SmartDs;
    config.cores = 2;
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;
    config.timingDomains = 4;
    config.dsan = true;
    return config;
}

void
expectIdenticalResults(const workload::ExperimentResult &a,
                       const workload::ExperimentResult &b)
{
    // Bitwise-equal doubles on purpose: the runs must be the *same*
    // computation, not statistically close ones.
    EXPECT_EQ(a.throughputGbps, b.throughputGbps);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_EQ(a.usageGbps, b.usageGbps);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.repairsCompleted, b.repairsCompleted);
    EXPECT_EQ(a.reconstructionsCompleted, b.reconstructionsCompleted);
    EXPECT_EQ(a.storageBlocksStored, b.storageBlocksStored);
    EXPECT_EQ(a.timingDomains, b.timingDomains);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.domainEvents, b.domainEvents);
    EXPECT_EQ(a.crossChannelEvents, b.crossChannelEvents);
    EXPECT_EQ(a.tagEvents, b.tagEvents);
    EXPECT_EQ(a.pdesRounds, b.pdesRounds);
    EXPECT_EQ(a.pdesDomainsEntered, b.pdesDomainsEntered);

    ASSERT_NE(a.stateHash, 0u);
    EXPECT_EQ(a.stateHash, b.stateHash);
    ASSERT_EQ(a.dsanWindows.size(), b.dsanWindows.size());
    for (std::size_t i = 0; i < a.dsanWindows.size(); ++i) {
        EXPECT_EQ(a.dsanWindows[i].hash, b.dsanWindows[i].hash);
        EXPECT_EQ(a.dsanWindows[i].events, b.dsanWindows[i].events);
        EXPECT_EQ(a.dsanWindows[i].firstTick, b.dsanWindows[i].firstTick);
        EXPECT_EQ(a.dsanWindows[i].lastTick, b.dsanWindows[i].lastTick);
    }
}

TEST(PdesExperiment, Fig07SmokeIsShardCountInvariant)
{
    workload::ExperimentConfig config = smokeConfig();

    config.shards = 1;
    const auto serial = workload::runWriteExperiment(config);
    config.shards = 4;
    const auto sharded = workload::runWriteExperiment(config);

    EXPECT_EQ(serial.timingDomains, 4u);
    EXPECT_GT(serial.crossChannelEvents, 0u);
    EXPECT_GT(serial.pdesRounds, 0u);
    // The per-tag counts partition the dispatched events.
    std::uint64_t tagged = 0;
    for (const std::uint64_t n : serial.tagEvents)
        tagged += n;
    EXPECT_EQ(tagged, serial.eventsExecuted);
    expectIdenticalResults(serial, sharded);
}

TEST(PdesExperiment, EcDurabilitySmokeIsShardCountInvariant)
{
    // The ext_ec_durability shape: erasure coding across failure
    // domains with crash churn and a correlated domain crash — the
    // config whose fault timeline crosses shard boundaries hardest.
    workload::ExperimentConfig config = smokeConfig();
    config.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
    config.ecDataShards = 4;
    config.ecParityShards = 2;
    config.storageServers = 12;
    config.failureDomains = 3;
    config.crashMeanInterval = 1 * ticksPerMillisecond;
    config.crashOutage = 1 * ticksPerMillisecond;
    config.domainCrashAt = 2 * ticksPerMillisecond;
    config.domainCrashOutage = 1 * ticksPerMillisecond;

    config.shards = 1;
    const auto serial = workload::runWriteExperiment(config);
    config.shards = 4;
    const auto sharded = workload::runWriteExperiment(config);

    EXPECT_EQ(serial.timingDomains, 4u);
    EXPECT_GT(serial.crashesInjected, 0u);
    expectIdenticalResults(serial, sharded);
}

TEST(PdesExperiment, MultiDomainTracksLegacyThroughput)
{
    // Domain count changes event interleaving at equal ticks, so the
    // runs are not bit-identical — but the physics must agree.
    workload::ExperimentConfig config = smokeConfig();
    config.dsan = false;

    config.timingDomains = 1;
    const auto legacy = workload::runWriteExperiment(config);
    config.timingDomains = 4;
    config.shards = 4;
    const auto pdes = workload::runWriteExperiment(config);

    EXPECT_NEAR(pdes.throughputGbps, legacy.throughputGbps,
                0.1 * legacy.throughputGbps);
    EXPECT_EQ(legacy.timingDomains, 1u);
    EXPECT_EQ(legacy.crossChannelEvents, 0u);
}

TEST(PdesExperiment, AutoDomainsDeriveFromTopology)
{
    workload::ExperimentConfig config = smokeConfig();
    config.dsan = false;
    config.timingDomains = 0; // derive from topology
    config.shards = 2;
    const auto r = workload::runWriteExperiment(config);
    EXPECT_GE(r.timingDomains, 3u);
    EXPECT_GT(r.crossChannelEvents, 0u);
    EXPECT_GT(r.throughputGbps, 0.0);
}

} // namespace
} // namespace smartds
