/**
 * @file
 * Read-path fetch-timeout regression tests for every design that uses
 * the shared expectFetch()/deliverFetch() table (the PR 6 stale-timer
 * bug, originally fixed in CpuOnly and since propagated to Acc and BF2):
 * with a fetch timeout shorter than the storage round trip, the first
 * probe of each read must time out and fail over, the late reply from
 * that probe must complete the follow-up probe's wait (same tag, same
 * block) instead of being misdelivered, and the follow-up probe's own
 * reply — arriving after the read finished — must be counted as a stale
 * ack and dropped, never fired into another read's wait. SmartDS runs
 * the same scenario on its fetch queue pair.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/checksum.h"
#include "corpus/corpus.h"
#include "faults/fault_injector.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/accelerator_server.h"
#include "middletier/bf2_server.h"
#include "middletier/cpu_only_server.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

constexpr Bytes blockBytes = 4096;

/** Functional storage pool with one seeded block on every node. */
struct TimeoutTestbed
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storageNodes;
    corpus::SyntheticCorpus corpus{1u << 20, 42};
    net::Port *vm = nullptr;
    std::vector<std::uint8_t> plain;
    unsigned replies = 0;
    Tick lastReply = 0;

    TimeoutTestbed()
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
        for (unsigned i = 0; i < 3; ++i) {
            storage.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            storageNodes.push_back(storage.back()->nodeId());
        }

        Rng rng(3);
        plain = corpus.sampleBlock(blockBytes, rng);
        const auto compressed =
            std::make_shared<const std::vector<std::uint8_t>>(
                lz4::compress(plain, 1));
        StorageHeader hdr;
        hdr.tag = 777;
        hdr.payloadSize = blockBytes;
        hdr.blockChecksum = xxhash32(plain);
        const auto header = hdr.encodeShared();

        vm = fabric.createPort("vm-raw");
        vm->onReceive([this](net::Message msg) {
            if (msg.kind != net::MessageKind::ReadReply)
                return;
            ++replies;
            lastReply = sim.now();
            ASSERT_TRUE(msg.payload.data);
            EXPECT_EQ(*msg.payload.data, plain);
        });

        for (unsigned i = 0; i < 3; ++i) {
            net::Message w;
            w.dst = storageNodes[i];
            w.kind = net::MessageKind::WriteReplica;
            w.headerBytes = StorageHeader::wireSize;
            w.headerData = header;
            w.tag = 777;
            w.payload.data = compressed;
            w.payload.size = compressed->size();
            w.payload.compressed = true;
            w.payload.originalSize = blockBytes;
            vm->send(std::move(w));
        }
        sim.run();
    }

    /**
     * Unloaded fabric + disk round trip of one fetch, measured with a
     * raw probe. The middle tier's own fetch adds NIC/DMA overhead on
     * top, so using this as the fetch timeout guarantees the first
     * probe always times out just before its reply lands — and the
     * reply still lands well inside the second probe's window.
     */
    Tick
    measureFetchRoundTrip()
    {
        net::Port *probe = fabric.createPort("probe");
        Tick arrived = 0;
        probe->onReceive([this, &arrived](net::Message msg) {
            if (msg.kind == net::MessageKind::ReadFetchReply)
                arrived = sim.now();
        });
        const Tick sent = sim.now();
        net::Message fetch;
        fetch.dst = storageNodes[0];
        fetch.kind = net::MessageKind::ReadFetch;
        fetch.headerBytes = StorageHeader::wireSize;
        fetch.tag = 777;
        fetch.payload.originalSize = blockBytes;
        probe->send(std::move(fetch));
        sim.run();
        EXPECT_GT(arrived, sent);
        return arrived - sent;
    }

    ServerConfig
    serverConfig(Tick fetch_timeout) const
    {
        ServerConfig config;
        config.cores = 4;
        config.storageNodes = storageNodes;
        config.failover.ackTimeout = fetch_timeout;
        return config;
    }

    /**
     * Issue @p reads sequential reads of the seeded block to @p server
     * and return the slowest one's latency. Each read carries its
     * encoded header, as VmClient's do: SmartDS takes the tag from the
     * header bytes.
     */
    Tick
    readSeededBlock(const MiddleTierServer &server, unsigned reads)
    {
        Tick slowest = 0;
        StorageHeader hdr;
        hdr.tag = 777;
        const auto header = hdr.encodeShared();
        for (unsigned i = 0; i < reads; ++i) {
            net::Message r;
            r.dst = server.frontNode();
            r.dstQp = server.frontQp();
            r.kind = net::MessageKind::ReadRequest;
            r.headerBytes = StorageHeader::wireSize;
            r.headerData = header;
            r.tag = 777;
            r.payload.size = 0;
            r.payload.originalSize = blockBytes;
            const Tick sent = sim.now();
            vm->send(std::move(r));
            sim.run();
            slowest = std::max(slowest, lastReply - sent);
        }
        return slowest;
    }
};

/**
 * The per-design scenario: every read's first probe times out (timeout
 * below the real round trip), the read is still served with verified
 * bytes by the late first reply, and the second probe's reply is
 * retired as a stale ack — the regression the per-entry cancelled
 * timers in expectFetch() guard against.
 */
template <typename MakeServer>
void
runStaleFetchScenario(MakeServer make_server)
{
    TimeoutTestbed bed;
    const Tick round_trip = bed.measureFetchRoundTrip();
    auto server = make_server(bed, bed.serverConfig(round_trip));

    constexpr unsigned reads = 10;
    bed.readSeededBlock(*server, reads);

    EXPECT_EQ(bed.replies, reads);
    const FailoverStats stats = server->failoverStats();
    EXPECT_GE(stats.readFailovers, reads); // probe 1 timed out every read
    EXPECT_GE(stats.staleAcks, reads);     // probe 2's reply was retired
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredCpuOnly)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<CpuOnlyServer>(bed.fabric, bed.memory,
                                               config);
    });
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredAccelerator)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<AcceleratorServer>(bed.fabric, bed.memory,
                                                   config);
    });
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredBf2)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<Bf2Server>(bed.fabric, config);
    });
}

/** A functional SmartDS middle tier on @p bed's fabric. */
std::unique_ptr<SmartDsServer>
makeSmartDs(TimeoutTestbed &bed, ServerConfig config)
{
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 4;
    sd.device.functional = true;
    return std::make_unique<SmartDsServer>(bed.fabric, bed.memory, config,
                                           sd);
}

/**
 * The stale-reply scenario on SmartDS, whose fetch timer is a QP reset
 * armed once the fetch has left the port: a timeout of the raw round
 * trip never fires there, so the timeout is three quarters of it. Every
 * read's first probe times out, and the first probe's late reply, landing
 * on the fetch QP re-posted for the second probe (same tag, same block),
 * serves the read byte for byte.
 *
 * staleAcks is left unasserted: the second probe's reply is dropped
 * uncounted by the fetch QP's next reset, where the host designs' fetch
 * table counts one stale reply per read.
 */
TEST(FetchTimeout, LateRepliesServeTheFailoverSmartDs)
{
    TimeoutTestbed bed;
    const Tick round_trip = bed.measureFetchRoundTrip();
    auto server = makeSmartDs(bed, bed.serverConfig(round_trip * 3 / 4));

    constexpr unsigned reads = 10;
    bed.readSeededBlock(*server, reads);

    EXPECT_EQ(bed.replies, reads);
    const FailoverStats stats = server->failoverStats();
    EXPECT_GE(stats.readFailovers, reads);
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

/**
 * Two of the block's three replicas are down. A read whose probe ring
 * starts at both dead nodes misses twice before the live one answers,
 * and the fetch timeout doubles after each miss: the slowest read waits
 * at least ackTimeout + 2 * ackTimeout, in every design.
 */
template <typename MakeServer>
void
runTwoReplicasDownScenario(MakeServer make_server)
{
    TimeoutTestbed bed;
    faults::FaultProfile down0(bed.storageNodes[0], 1);
    faults::FaultProfile down1(bed.storageNodes[1], 2);
    bed.storage[0]->attachFaults(&down0);
    bed.storage[1]->attachFaults(&down1);
    down0.crash();
    down1.crash();
    constexpr Tick timeout = 100_us;
    auto server = make_server(bed, bed.serverConfig(timeout));

    constexpr unsigned reads = 12;
    const Tick slowest = bed.readSeededBlock(*server, reads);

    EXPECT_EQ(bed.replies, reads);
    EXPECT_GE(slowest, timeout + 2 * timeout);
    const FailoverStats stats = server->failoverStats();
    EXPECT_GE(stats.readFailovers, 2u);
    EXPECT_EQ(stats.readsUnserved, 0u);
}

TEST(FetchTimeout, TimeoutDoublesAfterEachMissCpuOnly)
{
    runTwoReplicasDownScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<CpuOnlyServer>(bed.fabric, bed.memory,
                                               config);
    });
}

TEST(FetchTimeout, TimeoutDoublesAfterEachMissAccelerator)
{
    runTwoReplicasDownScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<AcceleratorServer>(bed.fabric, bed.memory,
                                                   config);
    });
}

TEST(FetchTimeout, TimeoutDoublesAfterEachMissBf2)
{
    runTwoReplicasDownScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<Bf2Server>(bed.fabric, config);
    });
}

TEST(FetchTimeout, TimeoutDoublesAfterEachMissSmartDs)
{
    runTwoReplicasDownScenario(makeSmartDs);
}

} // namespace
} // namespace smartds::middletier
