/**
 * @file
 * Erasure-coded durability end to end: failure-domain-aware shard
 * placement, NodeHealthView-driven recovery for both durability
 * policies, idempotent background reconstruction, correlated domain
 * crashes, and byte-for-byte degraded reads through the CpuOnly and
 * SmartDS designs with the block codec cache on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "faults/fault_injector.h"
#include "host/core_pool.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/cpu_only_server.h"
#include "middletier/maintenance.h"
#include "middletier/placement.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"
#include "workload/vm_client.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

// ---------------------------------------------------------------------
// Failure-domain-aware placement
// ---------------------------------------------------------------------

/** 9 nodes (ids 1..9) in 3 domains, node i + 1 in domain i % 3. */
Placement
topology()
{
    std::vector<net::NodeId> nodes;
    std::vector<unsigned> racks;
    for (unsigned i = 0; i < 9; ++i) {
        nodes.push_back(i + 1);
        racks.push_back(i % 3);
    }
    return Placement(nodes, racks);
}

unsigned
domainOf(net::NodeId n)
{
    return (n - 1) % 3;
}

std::map<unsigned, unsigned>
domainHistogram(std::span<const net::NodeId> picked)
{
    std::map<unsigned, unsigned> per_domain;
    for (const net::NodeId n : picked)
        ++per_domain[domainOf(n)];
    return per_domain;
}

TEST(DomainPlacement, NeverColocatesWhenDomainsSuffice)
{
    Placement placement = topology();
    NodeHealthView health;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const auto picked = placement.draw(rng, &health, 3);
        ASSERT_EQ(picked.size(), 3u);
        EXPECT_EQ(std::set<net::NodeId>(picked.begin(), picked.end())
                      .size(),
                  3u);
        // 3 picks over 3 domains: one per domain, never two in one.
        for (const auto &[domain, count] : domainHistogram(picked))
            EXPECT_EQ(count, 1u) << "domain " << domain;
    }
}

TEST(DomainPlacement, SpreadsEvenlyWhenShardsExceedDomains)
{
    // RS(4, 2) = 6 shards over 3 domains: co-location is unavoidable,
    // but the spread must be exactly 2 per domain — a domain crash then
    // costs at most m shards and every stripe stays recoverable.
    Placement placement = topology();
    NodeHealthView health;
    Rng rng(6);
    for (int i = 0; i < 200; ++i) {
        const auto picked = placement.draw(rng, &health, 6);
        ASSERT_EQ(picked.size(), 6u);
        for (const auto &[domain, count] : domainHistogram(picked))
            EXPECT_EQ(count, 2u) << "domain " << domain;
    }
}

TEST(DomainPlacement, FallsBackWithoutTopology)
{
    Placement placement({1, 2, 3, 4, 5, 6}, {});
    NodeHealthView health;
    Rng rng(7);
    const auto picked = placement.draw(rng, &health, 4);
    ASSERT_EQ(picked.size(), 4u);
    EXPECT_EQ(std::set<net::NodeId>(picked.begin(), picked.end()).size(),
              4u);
}

TEST(DomainPlacement, ReplacementPrefersUnoccupiedDomain)
{
    Placement placement = topology();
    NodeHealthView health;
    Rng rng(8);
    // Node i + 1 lives in domain i % 3: the placement occupies domains
    // 2 (node 3) and 0 (node 1), and node 3 is failing. Every
    // replacement draw must come from the untouched domain 1 (nodes 2,
    // 5, 8).
    const std::vector<net::NodeId> placed = {3, 1};
    for (int i = 0; i < 100; ++i) {
        const auto repl = placement.draw(rng, &health, 1, placed);
        ASSERT_EQ(repl.size(), 1u);
        EXPECT_EQ(domainOf(repl[0]), 1u) << repl[0];
    }
}

// ---------------------------------------------------------------------
// NodeHealthView recovery semantics (with and without topology)
// ---------------------------------------------------------------------

TEST(NodeHealth, SuspectedNodeRegainsEligibilityOnAck)
{
    NodeHealthView health(2);
    EXPECT_FALSE(health.noteTimeout(4)); // first strike: not yet
    EXPECT_TRUE(health.noteTimeout(4));  // threshold crossed
    EXPECT_FALSE(health.noteTimeout(4)); // already suspected: no re-fire
    EXPECT_TRUE(health.suspected(4));

    // Suspected nodes are excluded from fresh placement, whether the
    // pool is one rack (replicas without topology) or three (a stripe
    // spread over racks).
    Placement one_rack({1, 2, 3, 4, 5, 6, 7, 8, 9}, {});
    Placement spread = topology();
    const auto holds = [](std::span<const net::NodeId> picked,
                          net::NodeId n) {
        return std::find(picked.begin(), picked.end(), n) != picked.end();
    };
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(holds(one_rack.draw(rng, &health, 3), 4u));
        EXPECT_FALSE(holds(spread.draw(rng, &health, 6), 4u));
    }

    // One successful round trip clears the strikes and the suspicion.
    health.noteAck(4);
    EXPECT_FALSE(health.suspected(4));
    bool seen_rep = false, seen_ec = false;
    for (int i = 0; i < 200 && !(seen_rep && seen_ec); ++i) {
        seen_rep |= holds(one_rack.draw(rng, &health, 3), 4u);
        seen_ec |= holds(spread.draw(rng, &health, 6), 4u);
    }
    EXPECT_TRUE(seen_rep);
    EXPECT_TRUE(seen_ec);
}

TEST(NodeHealth, SuspicionIgnoredWhenPoolWouldStarve)
{
    // RS(4, 2) needs 6 targets; suspecting 4 of 6 nodes must not shrink
    // the candidate set below the fanout — better a suspect node than a
    // failed write. A smaller draw still skips the suspects.
    NodeHealthView health(1);
    Placement placement({1, 2, 3, 4, 5, 6}, {});
    for (const net::NodeId n : {1u, 2u, 3u, 4u})
        health.noteTimeout(n);
    Rng rng(10);
    EXPECT_EQ(placement.draw(rng, &health, 6).size(), 6u);
    for (int i = 0; i < 20; ++i)
        for (const net::NodeId n : placement.draw(rng, &health, 2))
            EXPECT_GE(n, 5u);
}

// ---------------------------------------------------------------------
// Idempotent background reconstruction
// ---------------------------------------------------------------------

TEST(Maintenance, DuplicateRepairKeysDroppedWhileInFlight)
{
    sim::Simulator sim;
    mem::MemorySystem memory(sim, "mem", {});
    host::CorePool pool(sim, "cores", 2);
    MaintenanceService maint(sim, "maint", pool, memory);
    maint.stop(); // repairs only, no compaction bursts

    int resends = 0;
    const auto resend = [&resends]() { ++resends; };
    // A flapping node abandons the same shard twice: the second request
    // is a duplicate of the in-flight reconstruction and is dropped.
    EXPECT_TRUE(maint.scheduleRepair({7, 2}, 4096, 4, resend));
    EXPECT_FALSE(maint.scheduleRepair({7, 2}, 4096, 4, resend));
    // A different shard of the same stripe is NOT a duplicate.
    EXPECT_TRUE(maint.scheduleRepair({7, 3}, 4096, 1, resend));
    sim.run();

    EXPECT_EQ(maint.repairsDeduped(), 1u);
    EXPECT_EQ(maint.repairsCompleted(), 2u);
    EXPECT_EQ(resends, 2);
    // The fan-in-4 repair is an EC reconstruction and was timed.
    EXPECT_EQ(maint.reconstructionsCompleted(), 1u);
    EXPECT_GT(maint.reconstructionTicks(), 0u);

    // Once the repair finishes, its key is free for a genuine re-repair.
    EXPECT_TRUE(maint.scheduleRepair({7, 2}, 4096, 4, resend));
    sim.run();
    EXPECT_EQ(maint.repairsCompleted(), 3u);
    EXPECT_EQ(maint.repairsDeduped(), 1u);
}

// ---------------------------------------------------------------------
// Correlated domain crashes
// ---------------------------------------------------------------------

TEST(FaultInjector, DomainCrashKillsWholeDomainTogetherAndRecovers)
{
    sim::Simulator sim;
    faults::FaultInjector injector(sim, 0xd00d);
    const std::vector<std::vector<net::NodeId>> domains = {
        {1, 2}, {3, 4}, {5, 6}};
    injector.scheduleDomainCrash(domains, 100_us, 200_us);

    sim.runUntil(150_us);
    EXPECT_EQ(injector.crashedCount(), 2u);
    // The outage is correlated: exactly one domain lost BOTH nodes.
    unsigned whole_domains_down = 0;
    for (const auto &domain : domains) {
        const bool a = injector.profile(domain[0])->crashed();
        const bool b = injector.profile(domain[1])->crashed();
        EXPECT_EQ(a, b);
        whole_domains_down += (a && b) ? 1 : 0;
    }
    EXPECT_EQ(whole_domains_down, 1u);

    sim.run();
    EXPECT_EQ(injector.crashedCount(), 0u); // everyone recovered
    EXPECT_EQ(injector.crashesInjected(), 2u);
}

TEST(FaultInjector, DomainCrashIsDeterministicForFixedSeed)
{
    auto run = [] {
        sim::Simulator sim;
        faults::FaultInjector injector(sim, 0xcafe);
        const std::vector<std::vector<net::NodeId>> domains = {
            {1, 2}, {3, 4}, {5, 6}};
        injector.scheduleDomainCrash(domains, 100_us, /*outage=*/0);
        sim.run();
        std::vector<bool> crashed;
        for (net::NodeId n = 1; n <= 6; ++n)
            crashed.push_back(injector.profile(n)->crashed());
        return std::make_pair(injector.crashesInjected(), crashed);
    };
    const auto first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first.first, 2u); // a whole 2-node domain, permanently
}

// ---------------------------------------------------------------------
// End-to-end degraded reads, byte for byte (CpuOnly and SmartDS)
// ---------------------------------------------------------------------

/**
 * Functional testbed: storage nodes in 3 failure domains (node i in
 * domain i % 3), functional stores, fault profiles attached, and the
 * block codec cache on.
 */
struct EcBed
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storageNodes;
    faults::FaultInjector injector{sim};
    corpus::SyntheticCorpus corpus{1u << 20, 42};
    const corpus::BlockCodecCache &cache;
    workload::ClientMetrics metrics;
    std::uint64_t tags = 1;

    explicit EcBed(unsigned n_storage = 6)
        : cache(corpus::sharedBlockCache(corpus, 4096, 1))
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
        for (unsigned i = 0; i < n_storage; ++i) {
            storage.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            storageNodes.push_back(storage.back()->nodeId());
            storage.back()->attachFaults(
                injector.profile(storageNodes.back()));
        }
    }

    ServerConfig
    serverConfig(unsigned cores) const
    {
        ServerConfig config;
        config.cores = cores;
        config.storageNodes = storageNodes;
        config.policy = ReplicationPolicy::ErasureCode;
        config.ec.dataShards = 4;
        config.ec.parityShards = 2;
        for (unsigned i = 0; i < storageNodes.size(); ++i)
            config.storageDomains.push_back(i % 3);
        config.blockCache = &cache;
        return config;
    }

    /** Crash every node of failure domain @p d, effective immediately. */
    void
    crashDomain(unsigned d)
    {
        for (unsigned i = 0; i < storageNodes.size(); ++i)
            if (i % 3 == d)
                injector.profile(storageNodes[i])->crash();
    }

    /** Shards of @p tag currently stored across the pool. */
    unsigned
    shardsStored(std::uint64_t tag) const
    {
        unsigned n = 0;
        for (const auto &s : storage) {
            const net::Payload *p = s->storedBlock(tag);
            if (p && p->ecK > 0)
                ++n;
        }
        return n;
    }
};

/** WriteRequest carrying cache entry @p block of @p bed's corpus. */
net::Message
craftWrite(const EcBed &bed, std::uint64_t tag, std::size_t block)
{
    const corpus::BlockCodecCache::Entry &e = bed.cache.entry(block);
    StorageHeader hdr;
    hdr.tag = tag;
    hdr.payloadSize = 4096;
    hdr.blockChecksum = e.plainChecksum;
    hdr.compressionEffort = 1;

    net::Message w;
    w.kind = net::MessageKind::WriteRequest;
    w.headerBytes = StorageHeader::wireSize;
    w.headerData = hdr.encodeShared();
    w.tag = tag;
    w.payload.data = e.plain;
    w.payload.size = 4096;
    w.payload.blockId = static_cast<std::uint32_t>(block + 1);
    w.payload.compressibility = e.ratio;
    return w;
}

net::Message
craftRead(const EcBed &bed, std::uint64_t tag, std::size_t block)
{
    net::Message r;
    r.kind = net::MessageKind::ReadRequest;
    r.headerBytes = StorageHeader::wireSize;
    r.tag = tag;
    r.payload.size = bed.cache.entry(block).compressed->size();
    r.payload.originalSize = 4096;
    // Functional reads carry an encoded header just like VmClient's —
    // SmartDS workers take the authoritative tag from the header bytes.
    StorageHeader hdr;
    hdr.tag = tag;
    hdr.payloadSize = 0;
    hdr.compressionEffort = 1;
    r.headerData = hdr.encodeShared();
    return r;
}

TEST(EcRecovery, CpuOnlyDegradedReadSurvivesDomainCrashByteForByte)
{
    EcBed bed;
    CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));

    constexpr std::size_t block = 3;
    const auto &entry = bed.cache.entry(block);
    net::Port *vm = bed.fabric.createPort("vm-raw");
    unsigned write_acks = 0, read_replies = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::WriteReply) {
            ++write_acks;
            return;
        }
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ++read_replies;
        ASSERT_TRUE(msg.payload.data);
        EXPECT_EQ(*msg.payload.data, *entry.plain); // byte for byte
    });

    net::Message w = craftWrite(bed, /*tag=*/42, block);
    w.dst = server.frontNode();
    vm->send(std::move(w));
    bed.sim.run();
    ASSERT_EQ(write_acks, 1u);
    // RS(4, 2): one shard per node, the whole pool.
    EXPECT_EQ(bed.shardsStored(42), 6u);

    // A rack loses power: domain 0 = nodes 0 and 3 = exactly m shards.
    bed.crashDomain(0);

    constexpr unsigned reads = 5;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r = craftRead(bed, 42, block);
        r.dst = server.frontNode();
        vm->send(std::move(r));
        bed.sim.run();
    }
    EXPECT_EQ(read_replies, reads);

    const FailoverStats stats = server.failoverStats();
    EXPECT_EQ(stats.stripesEncoded, 1u);
    EXPECT_GT(stats.degradedReads, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

TEST(EcRecovery, SmartDsDegradedReadSurvivesDomainCrashByteForByte)
{
    EcBed bed;
    ServerConfig config = bed.serverConfig(2);
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 4;
    sd.device.functional = true;
    sd.device.blockCache = &bed.cache;
    SmartDsServer server(bed.fabric, bed.memory, config, sd);

    constexpr std::size_t block = 5;
    const auto &entry = bed.cache.entry(block);
    net::Port *vm = bed.fabric.createPort("vm-raw");
    unsigned write_acks = 0, read_replies = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::WriteReply) {
            ++write_acks;
            return;
        }
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ++read_replies;
        ASSERT_TRUE(msg.payload.data);
        EXPECT_EQ(*msg.payload.data, *entry.plain); // byte for byte
    });

    net::Message w = craftWrite(bed, /*tag=*/43, block);
    w.dst = server.frontNode();
    w.dstQp = server.frontQp();
    vm->send(std::move(w));
    bed.sim.run();
    ASSERT_EQ(write_acks, 1u);
    EXPECT_EQ(bed.shardsStored(43), 6u);

    bed.crashDomain(0);

    constexpr unsigned reads = 5;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r = craftRead(bed, 43, block);
        r.dst = server.frontNode();
        r.dstQp = server.frontQp();
        vm->send(std::move(r));
        bed.sim.run();
    }
    EXPECT_EQ(read_replies, reads);

    const FailoverStats stats = server.failoverStats();
    EXPECT_EQ(stats.stripesEncoded, 1u);
    EXPECT_GT(stats.degradedReads, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

// ---------------------------------------------------------------------
// Background reconstruction of abandoned shards
// ---------------------------------------------------------------------

TEST(EcRecovery, AbandonedShardIsReconstructedInBackground)
{
    // One node is dead from t=0 with zero retries and a k-of-n ack
    // quorum: every stripe still acknowledges at k durable shards, the
    // dead shard is abandoned and handed to maintenance as a fan-in-k
    // reconstruction, and the reconstruction re-homes it. 9 nodes so
    // the replacement choice has spare nodes outside the placement.
    EcBed bed(9);
    ServerConfig config = bed.serverConfig(4);
    config.failover.ackQuorum = 4; // = k
    config.failover.maxRetries = 0;
    CpuOnlyServer server(bed.fabric, bed.memory, config);
    bed.injector.profile(bed.storageNodes[0])->crash();

    host::CorePool repair_pool(bed.sim, "repair.cores", 2);
    MaintenanceService maint(bed.sim, "maint", repair_pool, bed.memory);
    maint.stop();
    server.setMaintenanceService(&maint);

    workload::VmClient::Config cc;
    cc.target = server.frontNode();
    cc.outstanding = 2;
    cc.corpus = &bed.corpus;
    cc.tagCounter = &bed.tags;
    cc.metrics = &bed.metrics;
    workload::VmClient client(bed.fabric, "vm", cc);
    bed.sim.runUntil(4 * ticksPerMillisecond);
    client.stop();
    bed.sim.run();

    ASSERT_GT(bed.metrics.issued, 10u);
    EXPECT_EQ(bed.metrics.completed, bed.metrics.issued);

    const FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.stripesEncoded, 0u);
    EXPECT_GT(stats.quorumCompletions, 0u);
    EXPECT_GT(stats.replicasAbandoned, 0u);
    EXPECT_GT(stats.repairsScheduled, 0u);
    EXPECT_GT(maint.reconstructionsCompleted(), 0u);
    EXPECT_GT(maint.reconstructionTicks(), 0u);

    // Reconstructed shards landed on healthy nodes: every completed
    // write eventually has all 6 shards durable somewhere.
    unsigned fully_durable = 0;
    for (std::uint64_t tag = 1; tag < bed.tags; ++tag)
        fully_durable += bed.shardsStored(tag) == 6 ? 1 : 0;
    EXPECT_GT(fully_durable, 0u);
}

// ---------------------------------------------------------------------
// Full experiment harness under EC
// ---------------------------------------------------------------------

TEST(EcRecovery, EcExperimentWithDomainCrashIsDeterministic)
{
    workload::ExperimentConfig config;
    config.design = Design::CpuOnly;
    config.cores = 4;
    config.clients = 3;
    config.storageServers = 6;
    config.failureDomains = 3;
    config.replicationPolicy = ReplicationPolicy::ErasureCode;
    config.ecDataShards = 4;
    config.ecParityShards = 2;
    config.functional = true;
    config.readFraction = 0.2;
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;
    config.domainCrashAt = 1500_us;
    config.domainCrashOutage = 1 * ticksPerMillisecond;
    config.ackQuorum = 4;

    auto key = [](const workload::ExperimentResult &r) {
        return std::make_tuple(
            r.requestsCompleted, r.throughputGbps, r.p99LatencyUs,
            r.crashesInjected, r.failover.stripesEncoded,
            r.failover.degradedReads, r.failover.replicaTimeouts,
            r.failover.replicasAbandoned, r.failover.replicaBytesSent,
            r.repairsCompleted, r.repairsDeduped,
            r.reconstructionsCompleted, r.storageBlocksStored,
            r.storageBytesStored);
    };
    const auto a = workload::runWriteExperiment(config);
    const auto b = workload::runWriteExperiment(config);

    EXPECT_GT(a.requestsCompleted, 50u);
    EXPECT_GT(a.failover.stripesEncoded, 0u);
    // The domain crash took down exactly one 2-node domain.
    EXPECT_EQ(a.crashesInjected, 2u);
    EXPECT_EQ(key(a), key(b));
}

TEST(EcRecovery, SmartDsEcExperimentServesWrites)
{
    // SmartDS with the on-card EC engine, timing mode: the harness runs
    // end to end and accounts stripes + (k+m)/k amplified shard bytes.
    workload::ExperimentConfig config;
    config.design = Design::SmartDs;
    config.workersPerPort = 16;
    config.clients = 4;
    config.storageServers = 6;
    config.failureDomains = 3;
    config.replicationPolicy = ReplicationPolicy::ErasureCode;
    config.ecDataShards = 4;
    config.ecParityShards = 2;
    config.warmup = 500_us;
    config.window = 2 * ticksPerMillisecond;

    const auto r = workload::runWriteExperiment(config);
    EXPECT_GT(r.requestsCompleted, 50u);
    EXPECT_GT(r.failover.stripesEncoded, 0u);
    EXPECT_GT(r.storageBytesStored, 0u);
    EXPECT_GT(r.failover.replicaBytesSent, 0u);
}

} // namespace
} // namespace smartds::middletier
